package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/frame"
)

// The per-sample loops the span kernels replaced, kept verbatim as the
// reference the kernels are property-tested against (kernels_test.go). They
// index by (x, y), clamp every reference coordinate, and quantize with
// quantize() itself rather than the lookup tables, so they share nothing
// with the code under test beyond the bitstream definition.

// refResidReader consumes the zigzag-coded residual stream one bounds-checked
// residual at a time.
type refResidReader struct {
	data []byte
	pos  int
}

func (r *refResidReader) next() (int, error) {
	if r.pos >= len(r.data) {
		return 0, errTruncated
	}
	b := r.data[r.pos]
	r.pos++
	var z uint32
	if b < 255 {
		z = uint32(b)
	} else {
		if r.pos+2 > len(r.data) {
			return 0, errTruncated
		}
		z = uint32(r.data[r.pos]) | uint32(r.data[r.pos+1])<<8
		r.pos += 2
	}
	return int(z>>1) ^ -int(z&1), nil
}

func refZigzagAppend(buf []byte, r int) []byte {
	z := uint32(r<<1) ^ uint32(r>>31)
	if z < 255 {
		return append(buf, byte(z))
	}
	return append(buf, 255, byte(z), byte(z>>8))
}

func refIntraPredict(rec plane, x, y int, intra2D bool) int {
	left, top := -1, -1
	if x > 0 {
		left = int(rec.pix[y*rec.w+x-1])
	}
	if y > 0 {
		top = int(rec.pix[(y-1)*rec.w+x])
	}
	switch {
	case intra2D && left >= 0 && top >= 0:
		return (left + top + 1) / 2
	case left >= 0:
		return left
	case top >= 0:
		return top
	default:
		return 128
	}
}

func refSampleClamped(ref plane, x, y int) int {
	if x < 0 {
		x = 0
	}
	if x >= ref.w {
		x = ref.w - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= ref.h {
		y = ref.h - 1
	}
	return int(ref.pix[y*ref.w+x])
}

func refEncodeIntraPlane(dst []byte, p plane, q int, intra2D bool, rec plane) []byte {
	for y := 0; y < p.h; y++ {
		row := y * p.w
		for x := 0; x < p.w; x++ {
			pred := refIntraPredict(rec, x, y, intra2D)
			qr := quantize(int(p.pix[row+x])-pred, q)
			dst = refZigzagAppend(dst, qr)
			rec.pix[row+x] = clampU8(pred + qr*q)
		}
	}
	return dst
}

func refEncodeInterPlane(dst []byte, p, ref plane, mvs []mv, bs, scale, q int, rec plane) []byte {
	bw := (p.w + bs - 1) / bs
	for y := 0; y < p.h; y++ {
		row := y * p.w
		by := y / bs
		for x := 0; x < p.w; x++ {
			m := mvs[by*bw+x/bs]
			pred := refSampleClamped(ref, x+m.dx/scale, y+m.dy/scale)
			qr := quantize(int(p.pix[row+x])-pred, q)
			dst = refZigzagAppend(dst, qr)
			rec.pix[row+x] = clampU8(pred + qr*q)
		}
	}
	return dst
}

func refDecodeIntraPlane(rd *refResidReader, w, h, q int, intra2D bool) (plane, error) {
	rec := plane{w, h, make([]byte, w*h)}
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			qr, err := rd.next()
			if err != nil {
				return rec, err
			}
			pred := refIntraPredict(rec, x, y, intra2D)
			rec.pix[row+x] = clampU8(pred + qr*q)
		}
	}
	return rec, nil
}

func refDecodeInterPlane(rd *refResidReader, ref plane, mvs []mv, w, h, bs, scale, q int) (plane, error) {
	rec := plane{w, h, make([]byte, w*h)}
	bw := (w + bs - 1) / bs
	for y := 0; y < h; y++ {
		row := y * w
		by := y / bs
		for x := 0; x < w; x++ {
			qr, err := rd.next()
			if err != nil {
				return rec, err
			}
			m := mvs[by*bw+x/bs]
			pred := refSampleClamped(ref, x+m.dx/scale, y+m.dy/scale)
			rec.pix[row+x] = clampU8(pred + qr*q)
		}
	}
	return rec, nil
}

func refBlockSAD(cur, ref plane, x0, y0, bs, dx, dy, limit int) int {
	sum := 0
	for y := y0; y < y0+bs && y < cur.h; y++ {
		row := y * cur.w
		ry := y + dy
		if ry < 0 {
			ry = 0
		}
		if ry >= ref.h {
			ry = ref.h - 1
		}
		rrow := ry * ref.w
		for x := x0; x < x0+bs && x < cur.w; x++ {
			rx := x + dx
			if rx < 0 {
				rx = 0
			}
			if rx >= ref.w {
				rx = ref.w - 1
			}
			d := int(cur.pix[row+x]) - int(ref.pix[rrow+rx])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum >= limit {
			return sum
		}
	}
	return sum
}

// refFoldRuns is the byte-at-a-time run coding of a frame stream whose
// first head bytes are its MV table (see runs.go).
func refFoldRuns(stream []byte, head int) []byte {
	out := append([]byte(nil), stream[:head]...)
	for i := head; i < len(stream); {
		switch b := stream[i]; b {
		case 0:
			j := i
			for j < len(stream) && stream[j] == 0 {
				j++
			}
			if j-i >= minRun {
				out = binary.AppendUvarint(append(out, runToken), uint64(j-i-minRun))
			} else {
				out = append(out, stream[i:j]...)
			}
			i = j
		case runToken:
			out = append(out, escToken, runToken, 0)
			i++
		case escToken:
			out = append(out, stream[i:min(i+3, len(stream))]...)
			i += 3
		default:
			out = append(out, b)
			i++
		}
	}
	return out
}

// refExpandRuns undoes refFoldRuns a byte at a time, with no bound on what a
// token may claim: callers feed it streams whose tokens are small.
func refExpandRuns(src []byte, head int) ([]byte, error) {
	head = min(head, len(src))
	out := append([]byte(nil), src[:head]...)
	for i := head; i < len(src); {
		switch src[i] {
		case runToken:
			v, n := binary.Uvarint(src[i+1:])
			if n <= 0 {
				return nil, errTruncated
			}
			out = append(out, make([]byte, v+minRun)...)
			i += 1 + n
		case escToken:
			if i+3 > len(src) {
				return nil, errTruncated
			}
			out = append(out, src[i:i+3]...)
			i += 3
		default:
			out = append(out, src[i])
			i++
		}
	}
	return out, nil
}

// refDecodeGOP is the pre-kernel lossy decoder assembled from the loops
// above: unbounded inflate, a fresh plane per frame, a zero MV table for the
// zero-motion profile. It is what a store's earlier builds decoded v1 GOPs
// with; a v3 GOP's streams are expanded by refExpandRuns first.
func refDecodeGOP(data []byte) ([]*frame.Frame, error) {
	hd, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	c, ok := Lookup(hd.Codec)
	if !ok {
		return nil, ErrUnknownCodec
	}
	prof := c.(lossyCodec).prof
	q := quantizer(hd.Quality)
	payloads, err := framePayloads(data, hd)
	if err != nil {
		return nil, err
	}
	w, h := hd.Width, hd.Height
	dims := [3][2]int{{w, h}, {w / 2, h / 2}, {w / 2, h / 2}}
	var out []*frame.Frame
	var recon [3]plane
	for i := range payloads {
		zr := flate.NewReader(bytes.NewReader(payloads[i]))
		stream, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		bw, bh := (w+prof.blockSize-1)/prof.blockSize, (h+prof.blockSize-1)/prof.blockSize
		mvs := make([]mv, bw*bh)
		if hd.runCoded {
			head := 0
			if hd.FrameTypes[i] != IFrame && prof.searchRadius > 0 {
				head = 2 * len(mvs)
			}
			if stream, err = refExpandRuns(stream, head); err != nil {
				return nil, err
			}
		}
		rd := &refResidReader{data: stream}
		var next [3]plane
		if hd.FrameTypes[i] == IFrame {
			for p, d := range dims {
				if next[p], err = refDecodeIntraPlane(rd, d[0], d[1], q, prof.intra2D); err != nil {
					return nil, err
				}
			}
		} else {
			if i == 0 {
				return nil, errors.New("GOP begins with P-frame")
			}
			if prof.searchRadius > 0 {
				if len(stream) < 2*len(mvs) {
					return nil, errTruncated
				}
				for j := range mvs {
					mvs[j] = mv{int(stream[2*j]) - 128, int(stream[2*j+1]) - 128}
				}
				rd.pos = 2 * len(mvs)
			}
			for p, d := range dims {
				bs, scale := prof.blockSize, 1
				if p > 0 {
					bs, scale = bs/2, 2
				}
				if next[p], err = refDecodeInterPlane(rd, recon[p], mvs, d[0], d[1], bs, scale, q); err != nil {
					return nil, err
				}
			}
		}
		recon = next
		f := frame.New(w, h, frame.YUV420)
		n := copy(f.Data, recon[0].pix)
		n += copy(f.Data[n:], recon[1].pix)
		copy(f.Data[n:], recon[2].pix)
		out = append(out, f)
	}
	return out, nil
}
