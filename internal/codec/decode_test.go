package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/frame"
)

// deflatedZeros returns the raw-deflate compression of n zero bytes.
func deflatedZeros(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for ; n > 0; n -= len(chunk) {
		if _, err := zw.Write(chunk[:min(n, len(chunk))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocatedBy returns the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestInflateBombRejected: a frame payload is client-supplied (WriteEncoded,
// the vssd WriteGOPs wire path) and only the container header is validated
// on the way in. A 16x16 frame whose 64 KB payload inflates to 64 MB used
// to be read to its end by io.ReadAll on whichever node decoded it first;
// it must now fail as soon as it outgrows what 16x16 allows, having
// allocated next to nothing.
func TestInflateBombRejected(t *testing.T) {
	bomb := deflatedZeros(t, 64<<20)
	for _, id := range []ID{H264, HEVC} {
		for _, types := range [][]FrameType{{IFrame}, {IFrame, PFrame}} {
			payloads := make([][]byte, len(types))
			for i := range payloads {
				payloads[i] = bomb
			}
			if len(types) == 2 {
				// A valid I-frame first, so the bomb is met on the P path.
				valid, _, err := EncodeGOP([]*frame.Frame{frame.New(16, 16, frame.YUV420)}, id, 85)
				if err != nil {
					t.Fatal(err)
				}
				hd, _ := DecodeHeader(valid)
				ps, _ := framePayloads(valid, hd)
				payloads[0] = ps[0]
			}
			gop := writeContainer(id, frame.YUV420, 85, 16, 16, types, payloads)
			var err error
			start := time.Now()
			allocated := allocatedBy(func() { _, _, err = DecodeGOP(gop) })
			if !errors.Is(err, errOversized) {
				t.Errorf("%s %v: err = %v, want the oversized-stream error", id, types, err)
			}
			if allocated > 1<<20 {
				t.Errorf("%s %v: rejecting the bomb allocated %d bytes", id, types, allocated)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("%s %v: rejecting the bomb took %v", id, types, d)
			}
		}
	}
}

// TestHugeHeaderDimensionsRejected: the other way to make a decoder allocate
// — claim a huge picture. Nothing may be sized from the header until the
// stream has shown it carries a byte per sample.
func TestHugeHeaderDimensionsRejected(t *testing.T) {
	small, _, err := EncodeGOP([]*frame.Frame{frame.New(16, 16, frame.YUV420)}, H264, 85)
	if err != nil {
		t.Fatal(err)
	}
	hd, _ := DecodeHeader(small)
	payloads, _ := framePayloads(small, hd)
	for _, dim := range [][2]int{{maxDimension, maxDimension}, {maxDimension + 2, 16}, {0, 16}, {16, 15}} {
		gop := writeContainer(H264, frame.YUV420, 85, dim[0], dim[1], hd.FrameTypes, payloads)
		var err error
		allocated := allocatedBy(func() { _, _, err = DecodeGOP(gop) })
		if err == nil {
			t.Errorf("%dx%d header over a 16x16 payload decoded", dim[0], dim[1])
		}
		if allocated > 1<<20 {
			t.Errorf("%dx%d header: rejected after allocating %d bytes", dim[0], dim[1], allocated)
		}
	}
}

// TestDecodeAllocs pins what a steady-state decode allocates to the frames
// it returns plus a small constant: the inflated stream, the look-back
// planes, the MV and dequantization tables and the inflater itself all come
// from the pooled scratch. A plane or stream buffer allocated per frame
// again (130 KB and up at this size) cannot hide inside the allowance; the
// allowance itself is compress/flate, which rebuilds its Huffman link
// tables for every deflate block.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool retains nothing under the race detector")
	}
	frames := benchGOP()
	frameBytes := uint64(len(frames[0].Convert(frame.YUV420).Data))
	const allowance = 48 << 10
	for _, id := range []ID{H264, HEVC} {
		data, _, err := EncodeGOP(frames, id, benchQuality)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct{ from, to int }{{0, len(frames)}, {len(frames) - 1, len(frames)}} {
			decode := func() {
				if _, _, err := DecodeRange(data, r.from, r.to); err != nil {
					t.Fatal(err)
				}
			}
			decode() // warm the scratch pool
			delivered := uint64(r.to-r.from) * frameBytes
			// The pool may be emptied by a GC between runs; take the best.
			best := ^uint64(0)
			for i := 0; i < 5; i++ {
				best = min(best, allocatedBy(decode))
			}
			if best > delivered+allowance {
				t.Errorf("%s [%d,%d): decode allocated %d bytes for %d bytes of frames (allowance %d)",
					id, r.from, r.to, best, delivered, allowance)
			}
		}
	}
}

// TestConcurrentDecodesShareScratchPool decodes from many goroutines at
// once; under -race this checks that pooled scratch never leaks between
// calls or into returned frames.
func TestConcurrentDecodesShareScratchPool(t *testing.T) {
	frames := testScene(6, 64, 48, 51)
	for _, id := range []ID{H264, HEVC} {
		data, _, err := EncodeGOP(frames, id, 85)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := DecodeGOP(data)
		if err != nil {
			t.Fatal(err)
		}
		want := digestFrames(ref)
		results := make(chan string, 8)
		for g := 0; g < cap(results); g++ {
			go func(from int) {
				var last []*frame.Frame
				for i := 0; i < 20; i++ {
					dec, _, err := DecodeRange(data, from, -1)
					if err != nil {
						results <- err.Error()
						return
					}
					if last != nil && digestFrames(last) != digestFrames(dec) {
						results <- "frames of an earlier decode changed"
						return
					}
					last = dec
				}
				results <- digestFrames(append(ref[:from:from], last...))
			}(g % 3)
		}
		for g := 0; g < cap(results); g++ {
			if got := <-results; got != want {
				t.Errorf("%s: concurrent decode: %s", id, got)
			}
		}
	}
}
