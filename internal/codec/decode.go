package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/frame"
)

var (
	errTruncated = errors.New("codec: truncated residual stream")
	errOversized = errors.New("codec: corrupt stream: inflates past what the frame dimensions allow")
)

// decodeScratch is everything a lossy decode needs besides the frames it
// returns: the inflater, the inflated stream of the frame being decoded,
// the MV table, the dequantization table, and two plane triples that frames
// before the requested window (look-back) reconstruct into, alternating.
// Scratch is pooled across calls and goroutines; nothing in it outlives the
// DecodeRange call that took it.
type decodeScratch struct {
	src    bytes.Reader
	zr     io.ReadCloser // a flate reader; also a flate.Resetter
	lim    io.LimitedReader
	stream bytes.Buffer
	mvs    []mv
	dq     dequantTab
	rec    [2][3]plane
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// dequantTab tabulates the reconstruction delta unzigzag(b)*q of every
// one-byte code b, replacing the unfold and the multiply per sample with a
// lookup.
type dequantTab struct {
	q     int // the step the table was built for (0 = unbuilt)
	delta [255]int16
}

func (t *dequantTab) build(q int) {
	if t.q == q {
		return
	}
	t.q = q
	for b := range t.delta {
		t.delta[b] = int16(unzigzag(uint32(b)) * q)
	}
}

func unzigzag(z uint32) int { return int(z>>1) ^ -int(z&1) }

// inflate decompresses one frame payload into the scratch stream buffer and
// returns a reader over it. The stream of a valid frame holds its MV table
// and at most maxCodeLen bytes per sample, so limit bounds what a hostile
// payload can make the decoder allocate: a payload still producing bytes at
// the limit is rejected, not read to its end. The buffer grows with the bytes
// actually produced, never to the dimensions a header merely claims.
//
// The returned buffer extends slack bytes past the stream's true end. The row
// kernels read their input unchecked up to maxCodeLen bytes per sample (plus
// one word) ahead of the last position known to be valid; the slack keeps
// such reads inside the slice, and advance detects the overrun afterwards.
// What the slack holds is irrelevant: a decode that reads it fails.
func (s *decodeScratch) inflate(payload []byte, limit, slack int) (streamReader, error) {
	s.src.Reset(payload)
	if s.zr == nil {
		s.zr = flate.NewReader(&s.src)
	} else if err := s.zr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return streamReader{}, err
	}
	s.lim = io.LimitedReader{R: s.zr, N: int64(limit) + 1}
	s.stream.Reset()
	if _, err := s.stream.ReadFrom(&s.lim); err != nil {
		return streamReader{}, err
	}
	n := s.stream.Len()
	if n > limit {
		return streamReader{}, errOversized
	}
	s.stream.Grow(slack)
	return streamReader{buf: s.stream.Bytes()[:n+slack], end: n}, nil
}

// DecodeRange reconstructs frames [from, to). Every frame from the GOP
// start through to-1 must be decoded because P-frames chain; only the
// requested window is materialized and returned. This asymmetry — paying
// for Δ dependencies you do not return — is exactly the look-back cost the
// planner's c_l models.
//
// Frames inside the window are reconstructed directly into the Data of the
// frame that is returned; frames before it into pooled scratch planes. A
// returned frame's Data is therefore read as the reference of the frame
// after it while this call runs, and never touched again once it returns.
func (c lossyCodec) DecodeRange(data []byte, hd Header, from, to int) ([]*frame.Frame, error) {
	prof := c.prof
	w, h := hd.Width, hd.Height
	if w%2 != 0 || h%2 != 0 {
		return nil, fmt.Errorf("codec: %s: odd dimensions %dx%d", c.id, w, h)
	}
	payloads, err := framePayloads(data, hd)
	if err != nil {
		return nil, err
	}
	sc := decodeScratchPool.Get().(*decodeScratch)
	defer decodeScratchPool.Put(sc)
	sc.dq.build(quantizer(hd.Quality))

	// Every sample costs at least one stream byte and at most maxCodeLen.
	samples := w*h + 2*(w/2)*(h/2)
	slack := maxCodeLen*w + 8 // what a row kernel may read ahead
	out := make([]*frame.Frame, 0, to-from)
	var ref [3]plane // the previous frame's reconstruction
	for i := 0; i < to; i++ {
		isP := hd.FrameTypes[i] != IFrame
		if isP && i == 0 {
			return nil, fmt.Errorf("codec: GOP begins with P-frame")
		}
		mvBytes := 0
		if isP {
			mvBytes = 2 * mvTableLen(w, h, prof)
		}
		rd, err := sc.inflate(payloads[i], mvBytes+maxCodeLen*samples, slack)
		if err != nil {
			return nil, fmt.Errorf("codec: frame %d entropy decode: %w", i, err)
		}
		if rd.end < mvBytes+samples {
			// Checked before any plane is sized from the header: a frame
			// this large has to have brought the bytes to fill it.
			return nil, fmt.Errorf("codec: frame %d: %w", i, errTruncated)
		}
		var cur [3]plane
		if i >= from {
			f := frame.New(w, h, frame.YUV420)
			out = append(out, f)
			cur = yuvPlanes(f)
		} else {
			sizePlanes(&sc.rec[i&1], w, h)
			cur = sc.rec[i&1]
		}
		if isP {
			if sc.mvs, rd.pos, err = decodeMVs(sc.mvs, rd.buf[:rd.end], w, h, prof); err != nil {
				return nil, fmt.Errorf("codec: frame %d MV table: %w", i, err)
			}
		}
		for p := range cur {
			if !isP {
				err = decodeIntraPlane(&rd, cur[p], &sc.dq, prof.intra2D)
			} else {
				bs, scale := prof.blockSize, 1
				if p > 0 {
					bs, scale = bs/2, 2
				}
				err = decodeInterPlane(&rd, cur[p], ref[p], sc.mvs, bs, scale, &sc.dq)
			}
			if err != nil {
				return nil, fmt.Errorf("codec: frame %d plane %d: %w", i, p, err)
			}
		}
		ref = cur
	}
	return out, nil
}

// streamReader walks one frame's inflated stream. buf extends past the true
// end by the slack the row kernels may over-read (see inflate); pos is the
// next unread byte and end the true length.
type streamReader struct {
	buf []byte
	pos int
	end int
}

// advance consumes n bytes a kernel has read, failing if that took it past
// the true end of the stream.
func (r *streamReader) advance(n int) error {
	r.pos += n
	if r.pos > r.end {
		return errTruncated
	}
	return nil
}

// decodeIntraPlane reconstructs an intra-coded plane into rec, with the same
// per-row predictor specialisation as encodeIntraPlane.
func decodeIntraPlane(rd *streamReader, rec plane, dq *dequantTab, intra2D bool) error {
	w := rec.w
	for y := 0; y < rec.h; y++ {
		cur, s := rec.pix[y*w:][:w], rd.buf[rd.pos:]
		var n int
		switch {
		case y == 0:
			n = decodeIntraRowLeft(cur, s, 128, dq)
		case !intra2D:
			n = decodeIntraRowLeft(cur, s, int(rec.pix[(y-1)*w]), dq)
		default:
			n = decodeIntraRow2D(cur, rec.pix[(y-1)*w:][:w], s, dq)
		}
		if err := rd.advance(n); err != nil {
			return err
		}
	}
	return nil
}

// residual reads the dequantized residual at s[k:] and returns it with the
// next read position. s must extend maxCodeLen bytes past k.
func (t *dequantTab) residual(s []byte, k int) (int, int) {
	if b := s[k]; b < 255 {
		return int(t.delta[b]), k + 1
	}
	z := uint32(s[k+1]) | uint32(s[k+2])<<8
	return unzigzag(z) * t.q, k + 3
}

// decodeIntraRowLeft reconstructs one row predicted from the left neighbor;
// first predicts the first sample. s must hold maxCodeLen bytes per sample.
// It returns the bytes consumed.
func decodeIntraRowLeft(rec, s []byte, first int, dq *dequantTab) int {
	pred, k := first, 0
	for x := range rec {
		var d int
		d, k = dq.residual(s, k)
		v := clampU8(pred + d)
		rec[x] = v
		pred = int(v)
	}
	return k
}

// decodeIntraRow2D reconstructs one row below the first, predicted from the
// rounded mean of left and top (top alone in the first column).
func decodeIntraRow2D(rec, top, s []byte, dq *dequantTab) int {
	top = top[:len(rec)]
	pred, k := int(top[0]), 0
	for x := range rec {
		if x > 0 {
			pred = (pred + int(top[x]) + 1) >> 1
		}
		var d int
		d, k = dq.residual(s, k)
		v := clampU8(pred + d)
		rec[x] = v
		pred = int(v)
	}
	return k
}

// decodeInterPlane reconstructs an inter-coded plane into rec from the
// previous frame's plane ref, walking the same runs of equal motion vectors
// as encodeInterPlane. Vectors come from the stream and may point anywhere
// within ±128: whatever part of a run they push outside the reference takes
// the clamped per-sample path.
func decodeInterPlane(rd *streamReader, rec, ref plane, mvs []mv, bs, scale int, dq *dequantTab) error {
	w := rec.w
	bw := (w + bs - 1) / bs
	for y := 0; y < rec.h; y++ {
		cur := rec.pix[y*w:][:w]
		var rowMVs []mv
		if len(mvs) > 0 {
			rowMVs = mvs[(y/bs)*bw:][:bw]
		}
		for x0 := 0; x0 < w; {
			x1, m := nextRun(rowMVs, x0, bs, w)
			dx := m.dx / scale
			refRow := ref.pix[clampInt(y+m.dy/scale, ref.h)*w:][:w]
			lo, hi := inBounds(x0, x1, dx, w)
			s := rd.buf[rd.pos:]
			n := decodeInterClamped(cur, refRow, s, x0, lo, dx, dq)
			if lo < hi {
				n += decodeInterSpan(cur[lo:hi], refRow[lo+dx:hi+dx], s[n:], dq)
			}
			n += decodeInterClamped(cur, refRow, s[n:], hi, x1, dx, dq)
			if err := rd.advance(n); err != nil {
				return err
			}
			x0 = x1
		}
	}
	return nil
}

// decodeInterSpan is the inter-prediction row kernel: rec and pred are
// equal-length slices of the reconstruction row and the displaced reference
// row, s the stream with maxCodeLen bytes per sample (plus a word)
// readable. It returns the bytes consumed.
//
// Eight zero stream bytes are eight zero residuals: the samples are the
// prediction, copied as one word.
func decodeInterSpan(rec, pred, s []byte, dq *dequantTab) int {
	pred = pred[:len(rec)]
	k, i := 0, 0
	for ; i+8 <= len(rec); i += 8 {
		if binary.LittleEndian.Uint64(s[k:]) == 0 {
			binary.LittleEndian.PutUint64(rec[i:], binary.LittleEndian.Uint64(pred[i:]))
			k += 8
			continue
		}
		for j := i; j < i+8; j++ {
			var d int
			d, k = dq.residual(s, k)
			rec[j] = clampU8(int(pred[j]) + d)
		}
	}
	for ; i < len(rec); i++ {
		var d int
		d, k = dq.residual(s, k)
		rec[i] = clampU8(int(pred[i]) + d)
	}
	return k
}

// decodeInterClamped reconstructs samples [x0, x1) of a row whose displaced
// reference column falls outside the plane, clamping each to the nearest
// edge sample — the border path of decodeInterPlane.
func decodeInterClamped(rec, refRow, s []byte, x0, x1, dx int, dq *dequantTab) int {
	k := 0
	for x := x0; x < x1; x++ {
		var d int
		d, k = dq.residual(s, k)
		rec[x] = clampU8(int(refRow[clampInt(x+dx, len(refRow))]) + d)
	}
	return k
}
