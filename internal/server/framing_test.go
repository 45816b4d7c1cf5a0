package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/vss"
)

// framed returns the wire encoding of chunks; a nil chunk is the
// terminator.
func framed(chunks ...[]byte) []byte {
	var b bytes.Buffer
	for _, c := range chunks {
		writeChunk(&b, c)
	}
	return b.Bytes()
}

// TestBatchWriteFraming drives the batch-write handler with bodies that
// break docs/WIRE.md's framing: each is refused with 400 and stores
// nothing, and a chunk claiming maxChunkBytes over a 3-byte body reserves
// no more than the reader's bound, not the claimed size. Only the body
// that ends with the terminator is stored.
func TestBatchWriteFraming(t *testing.T) {
	sys, err := vss.Open(t.TempDir(), vss.Options{GOPFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.Create("cam", 0); err != nil {
		t.Fatal(err)
	}
	h := New(sys, Config{})
	stored := func() int {
		_, phys, err := sys.Store().Info("cam")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range phys {
			n += len(p.GOPs)
		}
		return n
	}
	gop := encodeGOPs(t, testFootage(8, 48, 32, 8), 8)[0]
	cases := []struct {
		name  string
		body  []byte
		want  int
		gops  int
		bound uint64 // most the request may allocate; 0 means unchecked
	}{
		{"no terminator", framed(gop), http.StatusBadRequest, 0, 0},
		{"claim of the limit over 3 bytes", append(binary.BigEndian.AppendUint32(nil, maxChunkBytes), 1, 2, 3), http.StatusBadRequest, 0, 2 << 20},
		{"byte after the terminator", append(framed(gop, nil), 0), http.StatusBadRequest, 0, 0},
		{"terminated", framed(gop, nil), http.StatusOK, 1, 0},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/videos/cam/gops?fps=8", bytes.NewReader(tc.body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; tc.bound > 0 && grew > tc.bound {
			t.Errorf("%s: allocated %d bytes, want at most %d", tc.name, grew, tc.bound)
		}
		if n := stored(); n != tc.gops {
			t.Errorf("%s: %d GOPs stored, want %d", tc.name, n, tc.gops)
		}
	}
}

// TestChunkArenaReadLarge covers payloads above putPrealloc: one
// arrives byte-identical, and a claim the peer backs with only part of
// its bytes reserves at most putPrealloc beyond them.
func TestChunkArenaReadLarge(t *testing.T) {
	payload := make([]byte, 5*putPrealloc/2+3)
	rand.New(rand.NewSource(1)).Read(payload)
	var a chunkArena
	got, err := a.read(bytes.NewReader(payload), len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d of %d bytes, err %v", len(got), len(payload), err)
	}
	sent := payload[:3*putPrealloc/2]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = a.read(bytes.NewReader(sent), 64*putPrealloc)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a short body read without error")
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(sent)+putPrealloc+64<<10); grew > limit {
		t.Errorf("a claim backed by %d bytes allocated %d, want at most %d", len(sent), grew, limit)
	}
}

// TestReadKeepsConnection pins that a read drained to its terminator
// hands its connection back for reuse: the reader consumes the body to
// EOF before closing it, so on a transport allowed one connection 300
// reads dial once.
func TestReadKeepsConnection(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{}, Config{CacheBytes: 16 << 20})
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", 8, encodeGOPs(t, testFootage(16, 48, 32, 8), 8)); err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	tr := &http.Transport{
		MaxConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
	}
	t.Cleanup(tr.CloseIdleConnections)
	c.HTTP = &http.Client{Transport: tr}
	for i := range 300 {
		if _, chunks, err := c.ReadAll(ctx, "cam", "codec=h264"); err != nil || len(chunks) != 2 {
			t.Fatalf("read %d: %d chunks, err %v", i, len(chunks), err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("300 reads dialed %d connections, want 1", n)
	}
}

// FuzzChunkStream feeds arbitrary bytes to the one chunk reader: it never
// panics, a length it refuses is never allocated (a stream allocates at
// most putPrealloc beyond a small multiple of its own size), and every
// stream it accepts re-frames byte-identically through the writer.
func FuzzChunkStream(f *testing.F) {
	f.Add(framed([]byte("gop-one"), []byte("gop-two"), nil))
	f.Add(framed(nil))
	f.Add([]byte{})
	f.Add(framed([]byte("cut")))
	f.Add(append(framed([]byte("x"), nil), 9))
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxChunkBytes), 1, 2, 3))
	f.Add(binary.BigEndian.AppendUint32(nil, maxChunkBytes+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		chunks, err := (&chunkReader{body: io.NopCloser(bytes.NewReader(data))}).all()
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, putPrealloc+4*uint64(len(data))+64<<10; grew > limit {
			t.Fatalf("reading %d bytes allocated %d, want at most %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		cw := &chunkWriter{w: &out}
		for _, c := range chunks {
			if err := cw.writeGOP(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted stream of %d bytes re-frames to %d different bytes", len(data), out.Len())
		}
	})
}
