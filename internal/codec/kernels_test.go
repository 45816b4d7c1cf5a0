package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// The span kernels against the scalar reference (reference_test.go): same
// stream bytes, same reconstruction, on inputs chosen to reach every path —
// planes narrower than a word, partial edge blocks, motion vectors up to
// ±128 that push whole runs outside the reference (a decoder sees such
// vectors from hostile streams), residuals that saturate the clamp and
// overflow the one-byte code, and flat regions that take the word path.

// randPlane fills a plane in one of four textures.
func randPlane(rng *rand.Rand, w, h int) plane {
	p := plane{w, h, make([]byte, w*h)}
	switch rng.Intn(4) {
	case 0: // noise
		rng.Read(p.pix)
	case 1: // extremes: saturating residuals against any other texture
		for i := range p.pix {
			p.pix[i] = byte(255 * rng.Intn(2))
		}
	case 2: // flat with sparse spikes: long dead-zone runs
		base := byte(rng.Intn(256))
		for i := range p.pix {
			p.pix[i] = base
			if rng.Intn(23) == 0 {
				p.pix[i] = byte(rng.Intn(256))
			}
		}
	default: // gradient with small jitter
		for i := range p.pix {
			p.pix[i] = byte(i%w*3 + i/w + rng.Intn(3))
		}
	}
	return p
}

// nearCopy returns src with most samples moved by at most amp, so residuals
// against it straddle the dead zone.
func nearCopy(rng *rand.Rand, src plane, amp int) plane {
	p := plane{src.w, src.h, append([]byte(nil), src.pix...)}
	for i := range p.pix {
		if rng.Intn(3) > 0 {
			p.pix[i] = clampU8(int(p.pix[i]) + rng.Intn(2*amp+1) - amp)
		}
	}
	return p
}

func randMVs(rng *rand.Rand, n, maxAbs int) []mv {
	mvs := make([]mv, n)
	cur := mv{}
	for i := range mvs {
		if rng.Intn(3) == 0 { // runs of equal vectors, broken at random
			cur = mv{rng.Intn(2*maxAbs+1) - maxAbs, rng.Intn(2*maxAbs+1) - maxAbs}
		}
		mvs[i] = cur
	}
	return mvs
}

// streamOver wraps an inflated stream the way DecodeRange does: padded with
// the slack the row kernels may over-read.
func streamOver(stream []byte, w int) *streamReader {
	buf := append(append([]byte(nil), stream...), make([]byte, maxCodeLen*w+8)...)
	return &streamReader{buf: buf, end: len(stream)}
}

var kernelQuantizers = []int{1, 2, 3, 4, 13, 26}

func TestInterKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 600; trial++ {
		w, h := 1+rng.Intn(70), 1+rng.Intn(24)
		bs := []int{4, 8, 16}[rng.Intn(3)]
		scale := 1 + rng.Intn(2)
		q := kernelQuantizers[rng.Intn(len(kernelQuantizers))]
		ref := randPlane(rng, w, h)
		src := randPlane(rng, w, h)
		if rng.Intn(2) == 0 {
			src = nearCopy(rng, ref, 1+rng.Intn(q+1))
		}
		bw, bh := (w+bs-1)/bs, (h+bs-1)/bs
		maxAbs := []int{0, 1, 3, 128}[rng.Intn(4)]
		mvs := randMVs(rng, bw*bh, maxAbs)
		kernelMVs := mvs
		if maxAbs == 0 && rng.Intn(2) == 0 {
			kernelMVs = nil // the zero-motion profile's empty table
		}
		name := fmt.Sprintf("trial %d (%dx%d bs=%d scale=%d q=%d mv<=%d)", trial, w, h, bs, scale, q, maxAbs)

		var qt quantTab
		qt.build(q)
		wantRec := plane{w, h, make([]byte, w*h)}
		gotRec := plane{w, h, make([]byte, w*h)}
		want := refEncodeInterPlane(nil, src, ref, mvs, bs, scale, q, wantRec)
		got := encodeInterPlane(nil, src, ref, kernelMVs, bs, scale, &qt, gotRec)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoded stream differs from reference", name)
		}
		if !bytes.Equal(gotRec.pix, wantRec.pix) {
			t.Fatalf("%s: encoder reconstruction differs from reference", name)
		}

		var dq dequantTab
		dq.build(q)
		rd := streamOver(want, w)
		dec := plane{w, h, make([]byte, w*h)}
		if err := decodeInterPlane(rd, dec, ref, kernelMVs, bs, scale, &dq); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if rd.pos != len(want) {
			t.Fatalf("%s: decode consumed %d of %d stream bytes", name, rd.pos, len(want))
		}
		if !bytes.Equal(dec.pix, wantRec.pix) {
			t.Fatalf("%s: decoded plane differs from reference reconstruction", name)
		}
	}
}

func TestIntraKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 300; trial++ {
		w, h := 1+rng.Intn(70), 1+rng.Intn(24)
		q := kernelQuantizers[rng.Intn(len(kernelQuantizers))]
		intra2D := rng.Intn(2) == 0
		src := randPlane(rng, w, h)
		name := fmt.Sprintf("trial %d (%dx%d q=%d 2d=%v)", trial, w, h, q, intra2D)

		var qt quantTab
		qt.build(q)
		wantRec := plane{w, h, make([]byte, w*h)}
		gotRec := plane{w, h, make([]byte, w*h)}
		want := refEncodeIntraPlane(nil, src, q, intra2D, wantRec)
		got := encodeIntraPlane(nil, src, &qt, intra2D, gotRec)
		if !bytes.Equal(got, want) || !bytes.Equal(gotRec.pix, wantRec.pix) {
			t.Fatalf("%s: intra encode differs from reference", name)
		}

		var dq dequantTab
		dq.build(q)
		rd := streamOver(want, w)
		dec := plane{w, h, make([]byte, w*h)}
		if err := decodeIntraPlane(rd, dec, &dq, intra2D); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if rd.pos != len(want) || !bytes.Equal(dec.pix, wantRec.pix) {
			t.Fatalf("%s: intra decode differs from reference", name)
		}
	}
}

// TestDecodeKernelsOnArbitraryStreams feeds both decoders bytes no encoder
// wrote — escapes carrying any 16-bit value, non-canonical escapes of small
// values, streams that end mid-plane or mid-escape. They must agree: the
// same plane, or both a truncation error.
func TestDecodeKernelsOnArbitraryStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 600; trial++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(12)
		q := kernelQuantizers[rng.Intn(len(kernelQuantizers))]
		stream := make([]byte, rng.Intn(w*h*2+4))
		for i := range stream {
			switch rng.Intn(5) {
			case 0:
				stream[i] = 255
			case 1, 2:
				stream[i] = 0
			default:
				stream[i] = byte(rng.Intn(256))
			}
		}
		var dq dequantTab
		dq.build(q)
		dec := plane{w, h, make([]byte, w*h)}
		var want plane
		var wantErr, gotErr error
		var name string
		if rng.Intn(2) == 0 {
			intra2D := rng.Intn(2) == 0
			name = fmt.Sprintf("trial %d intra %dx%d q=%d 2d=%v", trial, w, h, q, intra2D)
			want, wantErr = refDecodeIntraPlane(&refResidReader{data: stream}, w, h, q, intra2D)
			gotErr = decodeIntraPlane(streamOver(stream, w), dec, &dq, intra2D)
		} else {
			bs, scale := []int{4, 8, 16}[rng.Intn(3)], 1+rng.Intn(2)
			ref := randPlane(rng, w, h)
			mvs := randMVs(rng, ((w+bs-1)/bs)*((h+bs-1)/bs), 128)
			name = fmt.Sprintf("trial %d inter %dx%d q=%d bs=%d scale=%d", trial, w, h, q, bs, scale)
			want, wantErr = refDecodeInterPlane(&refResidReader{data: stream}, ref, mvs, w, h, bs, scale, q)
			gotErr = decodeInterPlane(streamOver(stream, w), dec, ref, mvs, bs, scale, &dq)
		}
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%s: reference error %v, kernel error %v", name, wantErr, gotErr)
		}
		if wantErr == nil && !bytes.Equal(dec.pix, want.pix) {
			t.Fatalf("%s: decoded plane differs from reference", name)
		}
	}
}

func TestBlockSADMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2000; trial++ {
		w, h := 1+rng.Intn(50), 1+rng.Intn(40)
		cur, ref := randPlane(rng, w, h), randPlane(rng, w, h)
		bs := []int{4, 8, 16}[rng.Intn(3)]
		x0, y0 := rng.Intn(w)/bs*bs, rng.Intn(h)/bs*bs
		dx, dy := rng.Intn(41)-20, rng.Intn(41)-20
		limit := 1 << 30
		if rng.Intn(2) == 0 {
			limit = rng.Intn(bs * bs * 64)
		}
		want := refBlockSAD(cur, ref, x0, y0, bs, dx, dy, limit)
		if got := blockSAD(cur, ref, x0, y0, bs, dx, dy, limit); got != want {
			t.Fatalf("trial %d (%dx%d block %d,%d bs=%d mv %d,%d limit %d): SAD %d, want %d",
				trial, w, h, x0, y0, bs, dx, dy, limit, got, want)
		}
	}
}

func TestAllWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 20000; trial++ {
		dead := rng.Intn(14)
		var a, b [8]byte
		rng.Read(a[:])
		want := true
		for i := range a {
			d := rng.Intn(2*dead+3) - dead - 1 // mostly inside, sometimes one past
			if rng.Intn(16) == 0 {
				d = rng.Intn(511) - 255
			}
			b[i] = clampU8(int(a[i]) + d)
			if diff := int(a[i]) - int(b[i]); diff > dead || diff < -dead {
				want = false
			}
		}
		aw, bw := leWord(a), leWord(b)
		if got := allWithin(aw, bw, uint64(dead)*swarOnes); got != want {
			t.Fatalf("a=%v b=%v dead=%d: allWithin %v, want %v", a, b, dead, got, want)
		}
	}
}

func leWord(b [8]byte) uint64 {
	var w uint64
	for i, v := range b {
		w |= uint64(v) << (8 * i)
	}
	return w
}

// TestDecodeMatchesReferenceDecoder decodes whole GOPs — as encoded, and with
// each P-frame's motion-vector table overwritten by arbitrary bytes, which
// no encoder emits but a decoder must survive — with the span-kernel decoder
// and with the pre-kernel decoder, and demands identical frames.
func TestDecodeMatchesReferenceDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, dim := range [][2]int{{50, 38}, {96, 64}, {2, 2}, {18, 6}} {
		frames := make([]*frame.Frame, 5)
		for i := range frames {
			frames[i] = frame.New(dim[0], dim[1], frame.YUV420)
			goldenFill(frames[i].Data, len(frames[i].Data), 1, 1, i)
		}
		for _, id := range []ID{H264, HEVC} {
			for _, quality := range []int{30, 85, 100} {
				data, _, err := EncodeGOP(frames, id, quality)
				if err != nil {
					t.Fatal(err)
				}
				for _, hostile := range []bool{false, true} {
					gop := data
					if hostile {
						if id != HEVC {
							continue // no MV table to overwrite
						}
						gop = scrambleMVs(t, rng, data)
					}
					name := fmt.Sprintf("%s q%d %dx%d hostile=%v", id, quality, dim[0], dim[1], hostile)
					want, err := refDecodeGOP(gop)
					if err != nil {
						t.Fatalf("%s: reference decode: %v", name, err)
					}
					got, _, err := DecodeGOP(gop)
					if err != nil {
						t.Fatalf("%s: decode: %v", name, err)
					}
					if digestFrames(got) != digestFrames(want) {
						t.Fatalf("%s: decoded frames differ from the reference decoder", name)
					}
				}
			}
		}
	}
}

// scrambleMVs rewrites every P-frame of an hevc GOP with a random MV table,
// leaving the residuals in place.
func scrambleMVs(t *testing.T, rng *rand.Rand, data []byte) []byte {
	t.Helper()
	hd, err := DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := framePayloads(data, hd)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Lookup(hd.Codec)
	prof := c.(lossyCodec).prof
	var sc decodeScratch
	out := make([][]byte, len(payloads))
	for i, p := range payloads {
		out[i] = p
		if hd.FrameTypes[i] == IFrame {
			continue
		}
		// Run coding leaves the MV table at the head of the stream as it is.
		stream, err := sc.inflate(p, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		stream = append([]byte(nil), stream...)
		rng.Read(stream[:2*mvTableLen(hd.Width, hd.Height, prof)])
		var buf bytes.Buffer
		zw, _ := flate.NewWriter(&buf, flate.BestSpeed)
		zw.Write(stream)
		zw.Close()
		out[i] = buf.Bytes()
	}
	return writeContainer(hd.Codec, hd.runCoded, hd.PixFmt, hd.Quality, hd.Width, hd.Height, hd.FrameTypes, out)
}
