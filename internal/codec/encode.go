package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
)

// plane is a single 8-bit sample plane with its own dimensions (chroma
// planes are subsampled relative to luma).
type plane struct {
	w, h int
	pix  []byte
}

// yuvPlanes splits a YUV420 frame into its three planes.
func yuvPlanes(f *frame.Frame) [3]plane {
	ys := f.Width * f.Height
	cw, ch := f.Width/2, f.Height/2
	cs := cw * ch
	return [3]plane{
		{f.Width, f.Height, f.Data[:ys]},
		{cw, ch, f.Data[ys : ys+cs]},
		{cw, ch, f.Data[ys+cs : ys+2*cs]},
	}
}

// quantize rounds residual r to the nearest multiple of q and returns the
// quantized index.
func quantize(r, q int) int {
	if q <= 1 {
		return r
	}
	if r >= 0 {
		return (r + q/2) / q
	}
	return -((-r + q/2) / q)
}

// Encoder carries per-codec scratch state so repeated encodes reuse
// allocations instead of re-making them per GOP. The scratch itself is
// registry-driven: each codec materializes its own scratch type on first
// use via Scratch (the lossy profiles keep a deflate compressor and
// reconstruction planes there; ls keeps its bit writer and row buffers).
// The zero value is ready to use. An Encoder is NOT safe for concurrent
// use; pipelines allocate one per encode worker.
type Encoder struct {
	scratch map[ID]any
}

// NewEncoder returns an empty Encoder. Equivalent to new(Encoder); the
// constructor exists so call sites read naturally.
func NewEncoder() *Encoder { return &Encoder{} }

// Scratch returns the encoder's scratch value for a codec, calling mk to
// create it on first use. Codec implementations call this from EncodeGOP;
// the returned value is private to them.
func (e *Encoder) Scratch(id ID, mk func() any) any {
	if e.scratch == nil {
		e.scratch = make(map[ID]any, 1)
	}
	v, ok := e.scratch[id]
	if !ok {
		v = mk()
		e.scratch[id] = v
	}
	return v
}

// EncodeGOP encodes one GOP reusing the encoder's scratch buffers. It is
// the allocation-frugal form of the package-level EncodeGOP; semantics and
// output bytes are identical. Shared validation (non-empty GOP, uniform
// dimensions and format, quality clamping) happens here; the registered
// codec does the rest.
func (e *Encoder) EncodeGOP(frames []*frame.Frame, codec ID, quality int) ([]byte, Stats, error) {
	c, quality, err := validateGOP(frames, codec, quality)
	if err != nil {
		return nil, Stats{}, err
	}
	return c.EncodeGOP(e, frames, quality)
}

// ReconEncoder is an optional Codec extension. A codec whose encoder runs
// a closed prediction loop (reconstructing each frame exactly as the
// decoder will, to predict the next from decoded state rather than pristine
// input) already holds the decoder-identical frames when EncodeGOP
// returns; implementing ReconEncoder hands them to the caller instead of
// throwing them away. Ingest-time summarization uses this to analyze the
// exact pixels a later read will decode without paying a decode-back pass.
type ReconEncoder interface {
	// EncodeGOPRecon is EncodeGOP plus the reconstructed frames, one per
	// input frame, byte-identical to what DecodeGOP of the returned data
	// produces.
	EncodeGOPRecon(e *Encoder, frames []*frame.Frame, quality int) ([]byte, []*frame.Frame, Stats, error)
}

// EncodeGOPRecon encodes one GOP and also returns the reconstructed frames
// a decoder would produce from the encoded bytes. Codecs that implement
// ReconEncoder supply them from the encoder's own prediction loop; for a
// codec that is lossless at this quality the inputs round-trip bit-exactly
// and are returned as-is; anything else pays an explicit decode-back. A nil
// reconstruction with a nil error means the encode succeeded but the
// decode-back failed — callers treat the GOP as unanalyzable, not invalid.
func (e *Encoder) EncodeGOPRecon(frames []*frame.Frame, codec ID, quality int) ([]byte, []*frame.Frame, Stats, error) {
	c, quality, err := validateGOP(frames, codec, quality)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	if rc, ok := c.(ReconEncoder); ok {
		return rc.EncodeGOPRecon(e, frames, quality)
	}
	data, st, err := c.EncodeGOP(e, frames, quality)
	if err != nil {
		return nil, nil, st, err
	}
	if c.Lossless(quality) {
		return data, frames, st, nil
	}
	recon, _, err := DecodeGOP(data)
	if err != nil {
		return data, nil, st, nil
	}
	return data, recon, st, nil
}

// validateGOP performs the shared pre-encode checks: non-empty GOP,
// uniform dimensions and format, known codec, quality clamped to [1,100].
func validateGOP(frames []*frame.Frame, codec ID, quality int) (Codec, int, error) {
	if len(frames) == 0 {
		return nil, 0, fmt.Errorf("codec: empty GOP")
	}
	c, ok := Lookup(codec)
	if !ok {
		return nil, 0, fmt.Errorf("codec: %q: %w", codec, ErrUnknownCodec)
	}
	w, h := frames[0].Width, frames[0].Height
	fmt0 := frames[0].Format
	for i, f := range frames {
		if f.Width != w || f.Height != h {
			return nil, 0, fmt.Errorf("codec: frame %d dimensions %dx%d differ from %dx%d", i, f.Width, f.Height, w, h)
		}
		if f.Format != fmt0 {
			return nil, 0, fmt.Errorf("codec: frame %d format %v differs from %v", i, f.Format, fmt0)
		}
	}
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	return c, quality, nil
}

// sizePlanes shapes a reconstruction plane triple for a w x h YUV420 frame,
// reusing backing arrays. Contents are left stale: every encode pass writes
// each sample before it is read.
func sizePlanes(ps *[3]plane, w, h int) {
	dims := [3][2]int{{w, h}, {w / 2, h / 2}, {w / 2, h / 2}}
	for p := range ps {
		need := dims[p][0] * dims[p][1]
		if cap(ps[p].pix) < need {
			ps[p].pix = make([]byte, need)
		}
		ps[p] = plane{dims[p][0], dims[p][1], ps[p].pix[:need]}
	}
}

// lossyCodec is one predictive profile ("h264" or "hevc") registered as a
// Codec. The id names it on the wire and in container tags; the profile
// carries its coding parameters.
type lossyCodec struct {
	id   ID
	prof profile
}

func init() {
	Register(lossyCodec{H264, profile{blockSize: 8, searchRadius: 0, intra2D: false}})
	Register(lossyCodec{HEVC, profile{blockSize: 16, searchRadius: 3, intra2D: true}})
}

func (c lossyCodec) Name() ID { return c.id }

// Lossless is false at every quality: even at quality 100 (exact
// residuals) inputs are converted to YUV420 first, so non-YUV420 frames do
// not round-trip bit-exactly.
func (c lossyCodec) Lossless(quality int) bool { return false }

// lossyScratch is the per-Encoder scratch of the predictive profiles: the
// deflate compressor (by far the largest allocation), the per-frame
// residual/MV stream and its run-coded form, the deflate output buffer,
// ping-pong reconstruction planes, the motion vector table, a YUV
// conversion frame, and the quantizer table.
type lossyScratch struct {
	zw     *flate.Writer
	stream []byte       // per-frame MV+residual stream, one code per sample
	folded []byte       // stream with its zero runs folded (runs.go)
	comp   bytes.Buffer // per-frame deflate output
	rec    [2][3]plane  // ping-pong reconstructed frames (decoder mirror)
	mvs    []mv         // per-frame motion vector table
	yuv    *frame.Frame // pixel format conversion scratch
	qt     quantTab     // residual quantization lookup
}

// quantTab tabulates, for every residual r in [-255, 255], the zigzag code
// of quantize(r, q) and the dequantized reconstruction delta, replacing two
// integer divisions and the zigzag fold per sample with array lookups. The
// entries are exactly quantize's results, so encoded bytes are unchanged.
type quantTab struct {
	q    int         // the step the tables were built for (0 = unbuilt)
	dead int         // |r| <= dead quantizes to zero (the dead zone)
	zz   [511]uint16 // zigzag(quantize(r, q)), indexed by r+255
	rq   [511]int16  // quantize(r, q)*q, indexed by r+255
}

// build (re)fills the tables for quantization step q.
func (t *quantTab) build(q int) {
	if t.q == q {
		return
	}
	t.q = q
	t.dead = (q - 1) / 2
	for r := -255; r <= 255; r++ {
		qr := quantize(r, q)
		t.zz[r+255] = uint16(uint32(qr<<1) ^ uint32(qr>>31))
		t.rq[r+255] = int16(qr * q)
	}
}

// put writes the variable-length code of residual r (r+255 = e) at out[k:]
// and returns the next write position: zigzag values below 255 take one
// byte, larger ones the 255 escape and two value bytes.
func (t *quantTab) put(out []byte, k, e int) int {
	z := t.zz[e]
	if z < 255 {
		out[k] = byte(z)
		return k + 1
	}
	out[k], out[k+1], out[k+2] = 255, byte(z), byte(z>>8)
	return k + 3
}

// maxCodeLen is the longest code put writes for one sample.
const maxCodeLen = 3

// roomFor returns dst with spare capacity for n more bytes, so a row kernel
// can index its output instead of appending per sample.
func roomFor(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]byte, len(dst), 2*cap(dst)+n)
	copy(grown, dst)
	return grown
}

// flateLevel is the deflate effort of both profiles. On run-coded streams
// of the traffic scene, level 6 is 4-7% smaller than level 4 for two to
// four times the deflate time, and inflates no faster.
const flateLevel = 4

// deflate compresses one frame's stream into a fresh exactly-sized payload,
// reusing the scratch compressor and output buffer.
func (s *lossyScratch) deflate(stream []byte) ([]byte, error) {
	s.comp.Reset()
	if s.zw == nil {
		zw, err := flate.NewWriter(&s.comp, flateLevel)
		if err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
		s.zw = zw
	} else {
		s.zw.Reset(&s.comp)
	}
	if _, err := s.zw.Write(stream); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if err := s.zw.Close(); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	out := make([]byte, s.comp.Len())
	copy(out, s.comp.Bytes())
	return out, nil
}

// EncodeGOP encodes frames with the predictive profile. Input frames are
// converted to YUV420; dimensions must be even (the storage layer
// guarantees this; synthetic generators emit even sizes, as real camera
// pipelines do).
func (c lossyCodec) EncodeGOP(e *Encoder, frames []*frame.Frame, quality int) ([]byte, Stats, error) {
	data, _, st, err := c.encode(e, frames, quality, false)
	return data, st, err
}

// EncodeGOPRecon implements ReconEncoder: the prediction loop is closed
// (every frame is encoded against reconstructed, not pristine, reference
// planes), so the reconstructions the loop maintains ARE the decoder's
// output and capturing them costs one plane copy per frame.
func (c lossyCodec) EncodeGOPRecon(e *Encoder, frames []*frame.Frame, quality int) ([]byte, []*frame.Frame, Stats, error) {
	return c.encode(e, frames, quality, true)
}

func (c lossyCodec) encode(e *Encoder, frames []*frame.Frame, quality int, capture bool) ([]byte, []*frame.Frame, Stats, error) {
	var st Stats
	w, h := frames[0].Width, frames[0].Height
	if w%2 != 0 || h%2 != 0 {
		return nil, nil, st, fmt.Errorf("codec: %s requires even dimensions, got %dx%d", c.id, w, h)
	}
	sc := e.Scratch(c.id, func() any { return new(lossyScratch) }).(*lossyScratch)
	prof := c.prof
	q := quantizer(quality)
	sc.qt.build(q)

	types := make([]FrameType, len(frames))
	payloads := make([][]byte, len(frames))
	var recon []*frame.Frame
	if capture {
		recon = make([]*frame.Frame, len(frames))
	}

	for i, f := range frames {
		src := f
		if f.Format != frame.YUV420 {
			src = f.ConvertInto(sc.yuv, frame.YUV420)
			sc.yuv = src
		}
		planes := yuvPlanes(src)
		// Reconstructed planes ping-pong: frame i predicts from the planes
		// frame i-1 reconstructed into the other buffer.
		cur := &sc.rec[i&1]
		sizePlanes(cur, w, h)
		stream := sc.stream[:0]
		mvEnd := 0 // the MV table's bytes at the head of the stream
		if i == 0 {
			types[i] = IFrame
			st.IFrames++
			for p := 0; p < 3; p++ {
				stream = encodeIntraPlane(stream, planes[p], &sc.qt, prof.intra2D, cur[p])
			}
		} else {
			types[i] = PFrame
			st.PFrames++
			prev := sc.rec[(i+1)&1]
			// Motion vectors are estimated on luma and halved for chroma.
			sc.mvs = estimateMotion(sc.mvs, planes[0], prev[0], prof)
			stream = appendMVs(stream, sc.mvs)
			mvEnd = len(stream)
			for p := 0; p < 3; p++ {
				bs := prof.blockSize
				scale := 1
				if p > 0 {
					bs /= 2
					scale = 2
				}
				stream = encodeInterPlane(stream, planes[p], prev[p], sc.mvs, bs, scale, &sc.qt, cur[p])
			}
		}
		sc.stream = stream // keep the grown buffer for the next frame
		sc.folded = foldRuns(sc.folded, stream, mvEnd)
		payload, err := sc.deflate(sc.folded)
		if err != nil {
			return nil, nil, st, err
		}
		payloads[i] = payload
		if capture {
			rf := frame.New(w, h, frame.YUV420)
			n := copy(rf.Data, cur[0].pix)
			n += copy(rf.Data[n:], cur[1].pix)
			copy(rf.Data[n:], cur[2].pix)
			recon[i] = rf
		}
	}

	data := writeContainer(c.id, true, frame.YUV420, quality, w, h, types, payloads)
	st.Bytes = len(data)
	st.BitsPerPixel = float64(len(data)) * 8 / float64(w*h*len(frames))
	return data, recon, st, nil
}

// encodeIntraPlane codes a plane with spatial DPCM prediction: each sample
// is predicted from its reconstructed left neighbor (h264 profile) or the
// average of left and top (hevc profile), quantized, and entropy coded.
// Residuals append to dst; the reconstruction the next frame predicts from
// is written into rec, which must already have the plane's dimensions.
//
// The predictor is specialised per row instead of switched per sample: the
// first row of either profile and every row of the left-only profile run the
// left kernel (seeded with 128 on the first row, with the sample above on
// later ones), and the remaining rows of the 2-D profile run the left+top
// kernel with its first column peeled.
func encodeIntraPlane(dst []byte, p plane, qt *quantTab, intra2D bool, rec plane) []byte {
	w := p.w
	for y := 0; y < p.h; y++ {
		dst = roomFor(dst, maxCodeLen*w)
		out := dst[len(dst):cap(dst)]
		src, cur := p.pix[y*w:][:w], rec.pix[y*w:][:w]
		var k int
		switch {
		case y == 0:
			k = encodeIntraRowLeft(out, src, cur, 128, qt)
		case !intra2D:
			k = encodeIntraRowLeft(out, src, cur, int(rec.pix[(y-1)*w]), qt)
		default:
			k = encodeIntraRow2D(out, src, cur, rec.pix[(y-1)*w:][:w], qt)
		}
		dst = dst[:len(dst)+k]
	}
	return dst
}

// encodeIntraRowLeft codes one row predicting each sample from the
// reconstruction to its left; first predicts the first sample. It returns
// the number of bytes written to out.
func encodeIntraRowLeft(out, src, rec []byte, first int, qt *quantTab) int {
	rec = rec[:len(src)]
	pred, k := first, 0
	for x, s := range src {
		e := int(s) - pred + 255
		k = qt.put(out, k, e)
		v := clampU8(pred + int(qt.rq[e]))
		rec[x] = v
		pred = int(v)
	}
	return k
}

// encodeIntraRow2D codes one row below the first predicting each sample from
// the rounded mean of its left and top reconstructions; the first column has
// no left neighbor and predicts from top alone.
func encodeIntraRow2D(out, src, rec, top []byte, qt *quantTab) int {
	rec, top = rec[:len(src)], top[:len(src)]
	pred, k := int(top[0]), 0
	for x, s := range src {
		if x > 0 {
			pred = (pred + int(top[x]) + 1) >> 1
		}
		e := int(s) - pred + 255
		k = qt.put(out, k, e)
		v := clampU8(pred + int(qt.rq[e]))
		rec[x] = v
		pred = int(v)
	}
	return k
}

// encodeInterPlane codes a plane against the previous reconstructed plane
// using per-block motion vectors (scaled down by `scale` for chroma; an
// empty table means zero motion everywhere). Residuals append to dst; the
// reconstruction is written into rec.
//
// Each row is walked as runs of blocks sharing one vector (nextRun), the
// vector is resolved once per run, and the part of the run whose displaced
// samples lie inside the reference goes through the row-slice kernel
// encodeInterSpan. Only the few samples a vector pushes past the left or
// right edge take the per-sample clamped path; vertical clamping is a choice
// of reference row and costs nothing.
func encodeInterPlane(dst []byte, p, ref plane, mvs []mv, bs, scale int, qt *quantTab, rec plane) []byte {
	w := p.w
	bw := (w + bs - 1) / bs
	for y := 0; y < p.h; y++ {
		dst = roomFor(dst, maxCodeLen*w)
		out := dst[len(dst):cap(dst)]
		src, cur := p.pix[y*w:][:w], rec.pix[y*w:][:w]
		var rowMVs []mv
		if len(mvs) > 0 {
			rowMVs = mvs[(y/bs)*bw:][:bw]
		}
		k := 0
		for x0 := 0; x0 < w; {
			x1, m := nextRun(rowMVs, x0, bs, w)
			dx := m.dx / scale
			refRow := ref.pix[clampInt(y+m.dy/scale, ref.h)*w:][:w]
			lo, hi := inBounds(x0, x1, dx, w)
			k += encodeInterClamped(out[k:], src, refRow, cur, x0, lo, dx, qt)
			if lo < hi {
				k += encodeInterSpan(out[k:], src[lo:hi], refRow[lo+dx:hi+dx], cur[lo:hi], qt)
			}
			k += encodeInterClamped(out[k:], src, refRow, cur, hi, x1, dx, qt)
			x0 = x1
		}
		dst = dst[:len(dst)+k]
	}
	return dst
}

// inBounds splits the run [x0, x1) displaced by dx into a clamped head
// [x0, lo), an in-reference middle [lo, hi) and a clamped tail [hi, x1).
// A run pushed wholly outside the reference has an empty middle.
func inBounds(x0, x1, dx, w int) (lo, hi int) {
	lo = min(max(x0, -dx), x1)
	hi = max(min(x1, w-dx), lo)
	return lo, hi
}

// clampInt clamps a coordinate to [0, n).
func clampInt(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// encodeInterSpan is the inter-prediction row kernel: src, pred and rec are
// equal-length slices of the source row, the displaced reference row and
// the reconstruction row. It returns the bytes written to out, which must
// have room for maxCodeLen per sample.
//
// Samples are taken eight at a time: when all eight residuals fall inside
// the quantizer's dead zone (the common case on a static background) they
// code as eight zero bytes and reconstruct as the prediction itself, which
// one word compare, one word store and one word copy do without touching
// the tables.
func encodeInterSpan(out, src, pred, rec []byte, qt *quantTab) int {
	pred, rec = pred[:len(src)], rec[:len(src)]
	dead := uint64(qt.dead) * swarOnes
	k, i := 0, 0
	for ; i+8 <= len(src); i += 8 {
		pw := binary.LittleEndian.Uint64(pred[i:])
		if allWithin(binary.LittleEndian.Uint64(src[i:]), pw, dead) {
			binary.LittleEndian.PutUint64(out[k:], 0)
			binary.LittleEndian.PutUint64(rec[i:], pw)
			k += 8
			continue
		}
		for j := i; j < i+8; j++ {
			e := int(src[j]) - int(pred[j]) + 255
			k = qt.put(out, k, e)
			rec[j] = clampU8(int(pred[j]) + int(qt.rq[e]))
		}
	}
	for ; i < len(src); i++ {
		e := int(src[i]) - int(pred[i]) + 255
		k = qt.put(out, k, e)
		rec[i] = clampU8(int(pred[i]) + int(qt.rq[e]))
	}
	return k
}

// SWAR constants: eight bytes are compared as two words of four 16-bit
// lanes (even bytes, odd bytes) so a per-byte difference cannot borrow from
// its neighbour.
const (
	swarLanes = 0x00FF00FF00FF00FF
	swarOnes  = 0x0001000100010001
	swarBias  = 0x8000800080008000
)

// allWithin reports whether every byte of a is within the dead zone of the
// matching byte of b; dead is the zone's half-width replicated into every
// 16-bit lane. Per lane, 0x8000+dead+a-b keeps its top bit iff a-b >= -dead,
// and the mirrored sum iff b-a >= -dead.
func allWithin(a, b, dead uint64) bool {
	ae, ao := a&swarLanes, a>>8&swarLanes
	be, bo := b&swarLanes, b>>8&swarLanes
	t := swarBias + dead
	return (t+ae-be)&(t+be-ae)&(t+ao-bo)&(t+bo-ao)&swarBias == swarBias
}

// encodeInterClamped codes samples [x0, x1) of a row whose displaced
// reference column falls outside the plane, clamping each to the nearest
// edge sample — the border path of encodeInterPlane.
func encodeInterClamped(out, src, refRow, rec []byte, x0, x1, dx int, qt *quantTab) int {
	k := 0
	for x := x0; x < x1; x++ {
		pred := int(refRow[clampInt(x+dx, len(refRow))])
		e := int(src[x]) - pred + 255
		k = qt.put(out, k, e)
		rec[x] = clampU8(pred + int(qt.rq[e]))
	}
	return k
}

// clampU8 saturates v to a byte. In-range values, nearly all of them, take
// the single unsigned compare.
func clampU8(v int) byte {
	if uint(v) <= 255 {
		return byte(v)
	}
	if v < 0 {
		return 0
	}
	return 255
}
