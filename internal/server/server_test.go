package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/visualroad"
	"repro/vss"
)

// newTestServer opens a fresh system and serves it over a real TCP
// listener (streaming/backpressure behavior needs real connections, not
// httptest.ResponseRecorder).
func newTestServer(t testing.TB, opts vss.Options, cfg Config) (*vss.System, *Client) {
	t.Helper()
	if opts.GOPFrames == 0 {
		opts.GOPFrames = 8
	}
	sys, err := vss.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ts := httptest.NewServer(New(sys, cfg))
	t.Cleanup(ts.Close)
	return sys, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// testFootage generates deterministic synthetic frames.
func testFootage(n, w, h, fps int) []*frame.Frame {
	return visualroad.Generate(visualroad.Config{Width: w, Height: h, FPS: fps, Seed: 42}, n)
}

// pinnedReadQuery is a raw read upscaled to 768x768: with 96 source
// frames that is ~170MB of output — far more than kernel socket buffers
// can absorb even fully autotuned — so a handler serving it to a client
// that stops consuming is guaranteed to block on write backpressure,
// pinning its admission slot. The stream's bounded look-ahead means the
// server only ever computes a few of those frames.
const pinnedReadQuery = "format=rgb&width=768&height=768"

// encodeGOPs chops frames into encoded GOPs of the given size.
func encodeGOPs(t testing.TB, frames []*frame.Frame, gop int) [][]byte {
	t.Helper()
	var gops [][]byte
	for i := 0; i < len(frames); i += gop {
		end := i + gop
		if end > len(frames) {
			end = len(frames)
		}
		data, _, err := codec.EncodeGOP(frames[i:end], codec.H264, 85)
		if err != nil {
			t.Fatal(err)
		}
		gops = append(gops, data)
	}
	return gops
}

// TestHTTPRoundtrip exercises the full lifecycle over HTTP: create, GOP
// write, stat, compressed + raw streaming reads, metrics, delete.
func TestHTTPRoundtrip(t *testing.T) {
	ctx := context.Background()
	sys, c := newTestServer(t, vss.Options{}, Config{CacheBytes: 1 << 20})

	const fps = 8
	frames := testFootage(32, 48, 32, fps)
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, encodeGOPs(t, frames, 8)); err != nil {
		t.Fatal(err)
	}

	stat, err := c.Stat(ctx, "cam")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Duration != 4 || stat.FPS != fps || len(stat.Views) != 1 {
		t.Fatalf("stat = %+v", stat)
	}

	// Compressed streaming read matches the library's batch read.
	hdr, gops, err := c.ReadAll(ctx, "cam", "codec=h264")
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Codec != "h264" || hdr.Width != 48 || hdr.Height != 32 || hdr.FPS != fps {
		t.Fatalf("read header = %+v", hdr)
	}
	res, err := sys.Read("cam", vss.ReadSpec{P: vss.Physical{Codec: vss.H264}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gops) != len(res.GOPs) {
		t.Fatalf("HTTP read returned %d GOPs, library %d", len(gops), len(res.GOPs))
	}
	for i := range gops {
		if !bytes.Equal(gops[i], res.GOPs[i]) {
			t.Fatalf("GOP %d differs between HTTP and library read", i)
		}
	}

	// Raw streaming read: reassemble frames from the chunked payloads and
	// compare byte-for-byte against the library.
	hdr, chunks, err := c.ReadAll(ctx, "cam", "start=1&end=3&format=rgb")
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Codec != "raw" || hdr.Format != frame.RGB || hdr.FrameBytes != 48*32*3 {
		t.Fatalf("raw read header = %+v", hdr)
	}
	var raw []byte
	for _, ch := range chunks {
		raw = append(raw, ch...)
	}
	rres, err := sys.Read("cam", vss.ReadSpec{T: vss.Temporal{Start: 1, End: 3}, P: vss.Physical{Format: vss.RGB}})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, f := range rres.Frames {
		want = append(want, f.Data...)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("raw HTTP read differs from library read (%d vs %d bytes)", len(raw), len(want))
	}

	// Second compressed read hits the response cache.
	hdr, gops2, err := c.ReadAll(ctx, "cam", "codec=h264")
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.CacheHit {
		t.Error("repeated compressed read did not hit the response cache")
	}
	if hdr.Codec != "h264" || hdr.Width != 48 || hdr.Height != 32 || hdr.FPS != fps {
		t.Errorf("cached response header = %+v, want same contract as a miss", hdr)
	}
	for i := range gops2 {
		if !bytes.Equal(gops2[i], gops[i]) {
			t.Fatalf("cached GOP %d differs from original", i)
		}
	}

	// The server counts a read completed just after flushing its last
	// chunk, so the client can see the end of the cached read first:
	// wait for the count rather than assume the order.
	var m MetricsSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, err = c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		if m.Reads.Completed >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m.Reads.Completed < 3 || m.Cache.Hits != 1 || m.Cache.Misses < 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Writes.GOPsWritten != 4 {
		t.Errorf("gops written = %d, want 4", m.Writes.GOPsWritten)
	}
	if _, ok := m.Videos["cam"]; !ok {
		t.Error("metrics missing per-video section")
	}

	if err := c.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "cam"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(ctx, "cam"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("stat after delete: %v, want 404", err)
	}
}

// TestWriteInvalidatesCache verifies appended GOPs evict stale cached
// responses (a cached end=0 read would otherwise miss the new suffix).
func TestWriteInvalidatesCache(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{}, Config{CacheBytes: 1 << 20})
	const fps = 8
	frames := testFootage(32, 48, 32, fps)
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	gops := encodeGOPs(t, frames, 8)
	if err := c.WriteGOPs(ctx, "cam", fps, gops[:2]); err != nil {
		t.Fatal(err)
	}
	_, first, err := c.ReadAll(ctx, "cam", "codec=h264")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, gops[2:]); err != nil {
		t.Fatal(err)
	}
	hdr, second, err := c.ReadAll(ctx, "cam", "codec=h264")
	if err != nil {
		t.Fatal(err)
	}
	if hdr.CacheHit {
		t.Error("read after append served a stale cached response")
	}
	if len(second) <= len(first) {
		t.Errorf("read after append returned %d GOPs, want > %d", len(second), len(first))
	}
}

// TestDefaultCodec pins Config.DefaultCodec (vssd -codec): a read that
// omits codec= is served in the default codec, an explicit codec=raw
// still means raw, and a defaulted read shares its response-cache entry
// with the explicit request for the same codec.
func TestDefaultCodec(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{}, Config{CacheBytes: 1 << 20, DefaultCodec: vss.H264})
	const fps = 8
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, encodeGOPs(t, testFootage(16, 48, 32, fps), 8)); err != nil {
		t.Fatal(err)
	}
	hdr, defaulted, err := c.ReadAll(ctx, "cam", "")
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Codec != "h264" || hdr.CacheHit {
		t.Fatalf("defaulted read: codec %q, cache hit %v; want h264, a miss", hdr.Codec, hdr.CacheHit)
	}
	if hdr, _, err = c.ReadAll(ctx, "cam", "codec=raw"); err != nil {
		t.Fatal(err)
	}
	if hdr.Codec != "raw" {
		t.Errorf("explicit codec=raw served %q", hdr.Codec)
	}
	hdr, explicit, err := c.ReadAll(ctx, "cam", "codec=h264")
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.CacheHit {
		t.Error("codec=h264 missed the entry the defaulted read cached")
	}
	if len(explicit) != len(defaulted) {
		t.Fatalf("explicit read %d GOPs, defaulted %d", len(explicit), len(defaulted))
	}
	for i := range explicit {
		if !bytes.Equal(explicit[i], defaulted[i]) {
			t.Fatalf("GOP %d differs between defaulted and explicit read", i)
		}
	}
}

// TestDisconnectCancelsRead verifies the acceptance criterion: a client
// that disconnects mid-stream cancels its in-flight decode work,
// observably via the cancellation metric.
func TestDisconnectCancelsRead(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{Workers: 1}, Config{})
	const fps = 8
	frames := testFootage(96, 128, 96, fps)
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, encodeGOPs(t, frames, 8)); err != nil {
		t.Fatal(err)
	}

	// An upscaled raw read is ~170MB — far beyond anything socket buffers
	// can absorb (autotuned kernel buffers reach tens of MB) — so the
	// handler is guaranteed to still be streaming (or blocked on write
	// backpressure) when we read one chunk and drop the connection. The
	// stream's look-ahead window bounds what the server actually computes.
	_, next, stop, err := c.StreamingRead(ctx, "cam", pinnedReadQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next(); err != nil {
		t.Fatal(err)
	}
	stop() // disconnect mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Reads.Cancelled >= 1 {
			if m.Reads.Completed != 0 {
				t.Errorf("disconnected read counted as completed: %+v", m.Reads)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never observed the disconnect: %+v", m.Reads)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAdmissionBoundsReads verifies in-flight bounding: with one slot and
// no queue, a second concurrent read is rejected with 429 while the first
// is pinned in flight by an unconsumed stream.
func TestAdmissionBoundsReads(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{Workers: 1},
		Config{MaxInFlightReads: 1, MaxQueuedReads: 1, MaxReadsPerClient: 8})
	const fps = 8
	frames := testFootage(96, 128, 96, fps)
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, encodeGOPs(t, frames, 8)); err != nil {
		t.Fatal(err)
	}

	// Pin the only slot: an upscaled raw read is ~170MB, so after one
	// chunk the handler is blocked on write backpressure and its admission
	// slot stays held until we drain or drop the connection. Metrics
	// requests bypass admission; a second read must queue; a third gets
	// 429.
	_, next, stop, err := c.StreamingRead(ctx, "cam", pinnedReadQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := next(); err != nil {
		t.Fatal(err)
	}

	// Fill the queue with a second read from another goroutine.
	queued := make(chan error, 1)
	go func() {
		qctx, qcancel := context.WithCancel(ctx)
		defer qcancel()
		_, _, qstop, err := (&Client{Base: c.Base, HTTP: c.HTTP, Name: "q"}).StreamingRead(qctx, "cam", "codec=hevc&quality=61")
		if err == nil {
			qstop()
		}
		queued <- err
	}()

	// Wait until the second read is actually queued.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Admission.QueueDepth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second read never queued: %+v", m.Admission)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Queue full: a third read is rejected immediately with 429.
	_, _, _, err = (&Client{Base: c.Base, HTTP: c.HTTP, Name: "r"}).StreamingRead(ctx, "cam", "codec=hevc&quality=62")
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("third concurrent read: %v, want 429", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Admission.Rejected < 1 {
		t.Errorf("no admission rejection recorded: %+v", m.Admission)
	}

	// Drain the pinned stream; the queued read should then complete.
	stop()
	if err := <-queued; err != nil {
		t.Fatalf("queued read after slot freed: %v", err)
	}
}

// TestPerClientLimit verifies one client cannot hold every slot.
func TestPerClientLimit(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{Workers: 1},
		Config{MaxInFlightReads: 8, MaxQueuedReads: 8, MaxReadsPerClient: 1})
	const fps = 8
	frames := testFootage(96, 128, 96, fps)
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, encodeGOPs(t, frames, 8)); err != nil {
		t.Fatal(err)
	}
	greedy := &Client{Base: c.Base, HTTP: c.HTTP, Name: "greedy"}
	// Pin via a ~170MB upscaled raw read (write backpressure holds the
	// slot; see pinnedReadQuery).
	_, next, stop, err := greedy.StreamingRead(ctx, "cam", pinnedReadQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := next(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := greedy.StreamingRead(ctx, "cam", "codec=hevc&quality=61"); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("second read from limited client: %v, want 429", err)
	}
	// A different client is unaffected.
	if _, _, err := (&Client{Base: c.Base, HTTP: c.HTTP, Name: "other"}).ReadAll(ctx, "cam", "codec=h264"); err != nil {
		t.Fatalf("other client read: %v", err)
	}
}

// TestConcurrentReadersVsPipelinedWriter is the satellite race-stress
// test: HTTP readers hammer prefix reads while a pipelined writer appends
// GOPs to the same video. Run under -race (CI does); correctness bar is
// that every read returns a consistent prefix with no errors.
func TestConcurrentReadersVsPipelinedWriter(t *testing.T) {
	ctx := context.Background()
	sys, c := newTestServer(t, vss.Options{GOPFrames: 8, BudgetMultiple: -1, Workers: 2}, Config{CacheBytes: 1 << 20})
	const fps = 8
	frames := testFootage(96, 48, 32, fps)

	if err := c.Create(ctx, "cam", -1); err != nil {
		t.Fatal(err)
	}
	w, err := sys.OpenWriter("cam", vss.WriteSpec{FPS: fps, Codec: vss.H264, Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	// Seed two seconds so readers always have a valid window, and flush so
	// duration metadata is visible.
	if err := w.Append(frames[:16]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	stopWriting := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := 16; i < len(frames); i += 8 {
			select {
			case <-stopWriting:
				return
			default:
			}
			if err := w.Append(frames[i : i+8]...); err != nil {
				writerDone <- err
				return
			}
			if err := w.Flush(); err != nil {
				writerDone <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Distinct client keys: the server releases a slot only after
			// the handler returns, which can lag the client's next request
			// — a shared key would trip the per-client limit spuriously.
			cl := &Client{Base: c.Base, HTTP: c.HTTP, Name: fmt.Sprintf("reader-%d", r)}
			for i := 0; i < 8; i++ {
				query := "start=0&end=1&codec=h264"
				if i%2 == 1 {
					query = "start=1&end=2&format=rgb"
				}
				hdr, chunks, err := cl.ReadAll(ctx, "cam", query)
				if err != nil {
					errs <- err
					return
				}
				if len(chunks) == 0 || hdr.Width != 48 {
					errs <- io.ErrUnexpectedEOF
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stopWriting)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatalf("reader: %v", err)
	default:
	}
}

// TestCacheGenerationGuard unit-tests the stale-prefix guard: a response
// assembled before an invalidation must not be inserted after it.
func TestCacheGenerationGuard(t *testing.T) {
	c := newResponseCache(1 << 20)
	gen := c.generation("v")
	entry := func() *cacheEntry {
		return &cacheEntry{key: "v|spec", video: "v", gops: [][]byte{{1, 2, 3}}, codec: "h264"}
	}
	// A write lands (invalidation) while the read was streaming: refused.
	c.invalidateVideo("v")
	c.put(entry(), gen)
	if _, ok := c.get("v|spec"); ok {
		t.Fatal("stale-generation entry was cached")
	}
	// A fresh read against the current generation: accepted, then dropped
	// by the next invalidation.
	c.put(entry(), c.generation("v"))
	if _, ok := c.get("v|spec"); !ok {
		t.Fatal("current-generation entry was not cached")
	}
	c.invalidateVideo("v")
	if _, ok := c.get("v|spec"); ok {
		t.Fatal("entry survived invalidation")
	}

	// Delete + recreate: the gens entry is released (no per-name leak),
	// yet a put snapshotted before the delete is still refused, and an
	// unrelated video's churn does not void inserts for a live video.
	gen = c.generation("v")
	c.removeVideo("v")
	if len(c.gens) != 0 {
		t.Fatalf("gens retained %d entries after removeVideo", len(c.gens))
	}
	c.put(entry(), gen)
	if _, ok := c.get("v|spec"); ok {
		t.Fatal("pre-delete snapshot was cached after delete/recreate")
	}
	c.invalidateVideo("v") // recreated video's first write
	genV := c.generation("v")
	c.invalidateVideo("other") // unrelated churn
	c.put(entry(), genV)
	if _, ok := c.get("v|spec"); !ok {
		t.Fatal("unrelated video churn voided a live video's insert")
	}
}

// TestOversizedChunkRejected verifies wire-length validation: a framed
// length far beyond the limit must be rejected before any allocation.
func TestOversizedChunkRejected(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{}, Config{})
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	body := []byte{0xFF, 0xFF, 0xFF, 0xFF} // claims a 4GiB-1 chunk
	resp, err := c.HTTP.Post(c.Base+"/videos/cam/gops?fps=8", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized chunk length: %d, want 400", resp.StatusCode)
	}
}

// TestBadRequests covers parameter validation paths.
func TestBadRequests(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{}, Config{})
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", 8, encodeGOPs(t, testFootage(8, 48, 32, 8), 8)); err != nil {
		t.Fatal(err)
	}
	// Spec mistakes — whether caught at parse time or by the store's
	// resolve — are the client's fault and must map to 400, not 500 (and
	// must not count as server read errors).
	// Sizes the output's pixel format cannot hold are spec mistakes too.
	for _, q := range []string{"start=bogus", "roi=1,2,3", "format=h264", "codec=mp5", "start=5&end=3", "width=-4",
		"format=yuv420&width=33&height=25", "format=yuv422&width=33&height=24", "codec=h264&width=33&height=25"} {
		if _, _, err := c.ReadAll(ctx, "cam", q); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("read with %q: %v, want 400", q, err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reads.Errors != 0 {
		t.Errorf("client spec mistakes counted as %d server read errors", m.Reads.Errors)
	}
	if _, _, err := c.ReadAll(ctx, "ghost", ""); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("read of missing video: %v, want 404", err)
	}
	// Write without fps, and with a garbage body.
	resp, err := c.HTTP.Post(c.Base+"/videos/cam/gops", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("write without fps: %d, want 400", resp.StatusCode)
	}
}
