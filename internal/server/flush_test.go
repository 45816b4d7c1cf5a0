package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/vss"
)

// countingDiscard is a flushable sink that only tallies bytes, so alloc
// measurements see the chunkWriter alone.
type countingDiscard struct {
	n       int64
	flushes int
}

func (d *countingDiscard) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }
func (d *countingDiscard) Flush()                      { d.flushes++ }

// TestChunkWriterAllocs is the pooled-buffer regression tripwire: once a
// chunkWriter is armed, streaming GOPs through it must not allocate —
// coalescing happens inside the pooled buffer, flushes reuse it, and
// bypass writes go straight from the caller's buffer.
func TestChunkWriterAllocs(t *testing.T) {
	var pool bufPool
	small := bytes.Repeat([]byte{7}, 4<<10)           // coalesces
	large := bytes.Repeat([]byte{9}, bypassThreshold) // zero-copy bypass
	sink := &countingDiscard{}
	cw := pool.get()
	cw.reset(sink, sink, nil)
	defer pool.put(cw)

	perGOP := testing.AllocsPerRun(200, func() {
		if err := cw.writeGOP(small); err != nil {
			t.Fatal(err)
		}
	})
	if perGOP > 0 {
		t.Errorf("small-GOP hot path allocates %.2f/op, want 0", perGOP)
	}
	perGOP = testing.AllocsPerRun(200, func() {
		if err := cw.writeGOP(large); err != nil {
			t.Fatal(err)
		}
	})
	if perGOP > 0 {
		t.Errorf("bypass hot path allocates %.2f/op, want 0", perGOP)
	}
}

// TestChunkArenaAllocs pins the client-side slab arena: carving small
// chunks must amortize to far below one allocation per chunk.
func TestChunkArenaAllocs(t *testing.T) {
	var arena chunkArena
	per := testing.AllocsPerRun(512, func() {
		buf := arena.alloc(4 << 10)
		if len(buf) != 4<<10 {
			t.Fatal("bad alloc length")
		}
	})
	if per > 0.1 {
		t.Errorf("arena allocates %.3f/chunk for 4KiB chunks, want amortized < 0.1", per)
	}
}

// TestChunkArenaNoAliasing verifies a caller appending to one carved
// chunk cannot scribble over the next chunk's bytes.
func TestChunkArenaNoAliasing(t *testing.T) {
	var arena chunkArena
	a := arena.alloc(8)
	copy(a, "aaaaaaaa")
	a = append(a, 'X') // must reallocate, not spill into b's slab region
	b := arena.alloc(8)
	copy(b, "bbbbbbbb")
	if string(a[:8]) != "aaaaaaaa" || string(b) != "bbbbbbbb" {
		t.Fatalf("arena chunks alias: a=%q b=%q", a, b)
	}
}

// TestChunkReaderAllocBytes pins what one stream's receive buffers
// cost: whatever its chunk sizes, a stream allocates at most twice its
// payload plus a small constant. A fixed 1 MiB slab per stream (the old
// arena) spent 1 MiB on a 2x84KB response.
func TestChunkReaderAllocBytes(t *testing.T) {
	cases := []struct {
		name          string
		chunks, bytes int
	}{
		{"2x84KB", 2, 84_000},
		{"512x4KiB", 512, 4 << 10},
		{"1x300KB", 1, 300_000},
		{"1x1B", 1, 1},
	}
	for _, tc := range cases {
		var wire bytes.Buffer
		chunk := bytes.Repeat([]byte{5}, tc.bytes)
		for range tc.chunks {
			writeChunk(&wire, chunk)
		}
		writeChunk(&wire, nil)
		drain := func() {
			r := &chunkReader{body: io.NopCloser(bytes.NewReader(wire.Bytes()))}
			for n := 0; ; n++ {
				got, err := r.next()
				if err == io.EOF {
					if n != tc.chunks {
						t.Fatalf("%s: %d chunks, want %d", tc.name, n, tc.chunks)
					}
					return
				}
				if err != nil || !bytes.Equal(got, chunk) {
					t.Fatalf("%s: chunk %d: %d bytes, err %v", tc.name, n, len(got), err)
				}
			}
		}
		// Best of three measurements, so a stray allocation elsewhere in
		// the process cannot fail the test.
		const runs = 8
		per := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				drain()
			}
			runtime.ReadMemStats(&after)
			per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		payload := uint64(tc.chunks * tc.bytes)
		if limit := 2*payload + 1<<10; per > limit {
			t.Errorf("%s: stream allocates %d bytes for a %d-byte payload, want <= %d", tc.name, per, payload, limit)
		}
	}
}

// BenchmarkStreamingReadHot drains a response-cache hit through
// Client.StreamingRead over a loopback server: the client half of a hot
// read, with the allocations it makes.
func BenchmarkStreamingReadHot(b *testing.B) {
	ctx := context.Background()
	_, c := newTestServer(b, vss.Options{}, Config{CacheBytes: 16 << 20})
	const fps = 8
	if err := c.Create(ctx, "cam", 0); err != nil {
		b.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, encodeGOPs(b, testFootage(32, 160, 96, fps), 8)); err != nil {
		b.Fatal(err)
	}
	const query = "start=1&end=3&codec=hevc"
	if _, _, err := c.ReadAll(ctx, "cam", query); err != nil { // fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		hdr, next, stop, err := c.StreamingRead(ctx, "cam", query)
		if err != nil {
			b.Fatal(err)
		}
		if !hdr.CacheHit {
			b.Fatal("response was not served from the cache")
		}
		var n int64
		for {
			chunk, err := next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += int64(len(chunk))
		}
		stop()
		b.SetBytes(n)
	}
}

// writeChunk is the reference encoder of one framed chunk, written
// straight from docs/WIRE.md: 4-byte big-endian length + payload. A nil
// payload writes the zero-length clean-EOF terminator.
func writeChunk(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// testMatch is one predicate-read match for the wire-equivalence test.
type testMatch struct {
	index uint32
	data  []byte
}

// naiveFraming is the reference wire encoding: every chunk written and
// flushed individually, the pre-coalescing behavior.
func naiveFraming(gops [][]byte, frameBatches [][]*frame.Frame, matches []testMatch) []byte {
	var buf bytes.Buffer
	for _, g := range gops {
		writeChunk(&buf, g)
	}
	for _, fr := range frameBatches {
		var total int
		for _, f := range fr {
			total += len(f.Data)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(total))
		buf.Write(hdr[:])
		for _, f := range fr {
			buf.Write(f.Data)
		}
	}
	for _, m := range matches {
		writeChunk(&buf, append(binary.BigEndian.AppendUint32(nil, m.index), m.data...))
	}
	writeChunk(&buf, nil)
	return buf.Bytes()
}

// TestChunkWriterWireEquivalence drives randomized GOP, frame-batch and
// match sequences across the coalesce/bypass boundary and asserts the
// wire bytes are identical to per-chunk framing — flush windows move
// write boundaries, never payload bytes.
func TestChunkWriterWireEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		var gops [][]byte
		for i := 0; i < 1+rng.Intn(40); i++ {
			// Sizes straddle bypassThreshold so both paths interleave.
			n := 1 + rng.Intn(2*bypassThreshold)
			g := make([]byte, n)
			rng.Read(g)
			gops = append(gops, g)
		}
		var fb [][]*frame.Frame
		for i := 0; i < rng.Intn(3); i++ {
			var batch []*frame.Frame
			for k := 0; k < 1+rng.Intn(4); k++ {
				// Up to ~41KB a frame, so batches straddle bypassThreshold too.
				f := frame.New(32+rng.Intn(256), 16+rng.Intn(128), frame.Gray)
				rng.Read(f.Data)
				batch = append(batch, f)
			}
			fb = append(fb, batch)
		}
		var matches []testMatch
		for i := 0; i < rng.Intn(8); i++ {
			m := testMatch{index: rng.Uint32(), data: make([]byte, 1+rng.Intn(2*bypassThreshold))}
			rng.Read(m.data)
			matches = append(matches, m)
		}

		var pool bufPool
		var got bytes.Buffer
		cw := pool.get()
		cw.reset(&got, nil, nil)
		for _, g := range gops {
			if err := cw.writeGOP(g); err != nil {
				t.Fatal(err)
			}
		}
		for _, batch := range fb {
			if err := cw.writeFrames(batch); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range matches {
			if err := cw.writeMatch(m.index, m.data); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.finish(); err != nil {
			t.Fatal(err)
		}
		if want := naiveFraming(gops, fb, matches); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d: coalesced wire bytes differ from per-chunk framing (%d vs %d bytes)",
				trial, got.Len(), len(want))
		}
		if cw.bytesOut != int64(got.Len()) {
			t.Fatalf("trial %d: bytesOut %d, wrote %d", trial, cw.bytesOut, got.Len())
		}
		pool.put(cw)
	}
}

// TestChunkWriterFirstChunkFlushes pins the TTFB bound: the first chunk
// must reach the wire immediately, not wait for the byte threshold.
func TestChunkWriterFirstChunkFlushes(t *testing.T) {
	var pool bufPool
	sink := &countingDiscard{}
	cw := pool.get()
	fired := false
	cw.reset(sink, sink, func() { fired = true })
	if err := cw.writeGOP([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 || sink.flushes == 0 || !fired {
		t.Fatalf("first chunk not committed: wrote %d bytes, %d flushes, onFirst=%v",
			sink.n, sink.flushes, fired)
	}
	// Subsequent small chunks coalesce instead of flushing.
	flushesAfterFirst := sink.flushes
	for i := 0; i < 3; i++ {
		if err := cw.writeGOP([]byte("tiny")); err != nil {
			t.Fatal(err)
		}
	}
	if sink.flushes != flushesAfterFirst {
		t.Errorf("small chunks flushed eagerly: %d flushes, want %d", sink.flushes, flushesAfterFirst)
	}
	if cw.coalesced != 3 {
		t.Errorf("coalesced = %d, want 3", cw.coalesced)
	}
	pool.put(cw)
}

// TestLatencyHistQuantiles sanity-checks the power-of-two histogram
// behind the TTFB gauge (now obs.Hist): the quantile must land within
// its 2x bucket of the true value.
func TestLatencyHistQuantiles(t *testing.T) {
	var h obs.Hist
	for i := 0; i < 50; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		h.Observe(900 * time.Millisecond)
	}
	p50, p99 := h.QuantileMillis(0.50), h.QuantileMillis(0.99)
	if p50 < 1 || p50 > 2.1 {
		t.Errorf("p50 = %.2fms, want ~1-2ms", p50)
	}
	if p99 < 900 || p99 > 2100 {
		t.Errorf("p99 = %.2fms, want within 2x of 900ms", p99)
	}
}
