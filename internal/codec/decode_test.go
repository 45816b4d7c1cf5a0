package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/frame"
)

// deflateRepeat returns the raw-deflate compression of unit repeated n
// times, without holding the repetition in memory.
func deflateRepeat(t testing.TB, unit []byte, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	for ; n > 0; n-- {
		if _, err := zw.Write(unit); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// zeroIFrame16 returns the payload of a valid 16x16 I-frame whose every
// residual is zero, in the v1 or the run-coded (v3) stream format.
func zeroIFrame16(t testing.TB, runCoded bool) []byte {
	stream := make([]byte, 16*16+2*8*8)
	if runCoded {
		stream = foldRuns(nil, stream, 0)
	}
	return deflateRepeat(t, stream, 1)
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
// allocated next to nothing — in either container version.
func TestInflateBombRejected(t *testing.T) {
	bomb := deflateRepeat(t, make([]byte, 1<<20), 64)
	for _, runCoded := range []bool{false, true} {
		for _, id := range []ID{H264, HEVC} {
			for _, types := range [][]FrameType{{IFrame}, {IFrame, PFrame}} {
				payloads := make([][]byte, len(types))
				for i := range payloads {
					payloads[i] = bomb
				}
				if len(types) == 2 {
					// A valid I-frame first, so the bomb is met on the P path.
					payloads[0] = zeroIFrame16(t, runCoded)
				}
				gop := writeContainer(id, runCoded, frame.YUV420, 85, 16, 16, types, payloads)
				var err error
				start := time.Now()
				allocated := allocatedBy(func() { _, _, err = DecodeGOP(gop) })
				name := fmt.Sprintf("%s %v run-coded=%v", id, types, runCoded)
				if !errors.Is(err, errOversized) {
					t.Errorf("%s: err = %v, want the oversized-stream error", name, err)
				}
				if allocated > 1<<20 {
					t.Errorf("%s: rejecting the bomb allocated %d bytes", name, allocated)
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("%s: rejecting the bomb took %v", name, d)
				}
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
		gop := writeContainer(H264, hd.runCoded, frame.YUV420, 85, dim[0], dim[1], hd.FrameTypes, payloads)
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
	// One P, as testing.AllocsPerRun uses: sync.Pool keeps a Put object in
	// the putting P's private slot, which a Get on another P never sees, so
	// a test goroutine that migrates between Ps is charged a whole new
	// scratch however long the pool has been warm.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frames := benchGOP(480, 272)
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
