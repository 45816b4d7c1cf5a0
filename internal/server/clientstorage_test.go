package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/vss"
)

// rawResponder answers every request with the given raw HTTP response
// bytes and closes the connection, so a test can send headers that
// disagree with the body.
func rawResponder(t *testing.T, raw string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf.WriteString(raw)
		buf.Flush()
	}))
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

// TestGOPReadLyingNode drives Client.GOPRead against node responses
// whose headers lie about the body: each must fail, and a length claim
// above maxChunkBytes must fail before anything that size is allocated.
func TestGOPReadLyingNode(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name, raw, want string
	}{
		{
			name: "short body",
			raw:  "HTTP/1.1 200 OK\r\nContent-Length: 100\r\nX-VSS-GOP-Size: 100\r\n\r\n" + strings.Repeat("g", 50),
			want: "truncated",
		},
		{
			name: "long body",
			raw:  "HTTP/1.1 200 OK\r\nContent-Length: 20\r\nX-VSS-GOP-Size: 10\r\n\r\n" + strings.Repeat("g", 20),
			want: "longer than advertised",
		},
		{
			name: "oversized claim",
			raw:  fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-VSS-GOP-Size: %[1]d\r\n\r\nggg", maxChunkBytes+1),
			want: "limit",
		},
	}
	for _, tc := range cases {
		c := rawResponder(t, tc.raw)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, err := c.GOPRead(ctx, "cam", "p0", 0)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: GOPRead = %d bytes, err %v; want an error mentioning %q", tc.name, len(data), err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: GOPRead allocated %d bytes for a refused response", tc.name, grew)
		}
	}
}

// TestGOPWriteLyingContentLength drives the GOP PUT handler with an
// honest, a missing and two lying lengths: only the honest PUT stores
// its GOP, and a header claiming maxChunkBytes over a 3-byte body
// reserves no more than putPrealloc, not the claimed size.
func TestGOPWriteLyingContentLength(t *testing.T) {
	sys, err := vss.Open(t.TempDir(), vss.Options{GOPFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	h := New(sys, Config{})
	gop := bytes.Repeat([]byte{7}, 3000)
	cases := []struct {
		name     string
		body     []byte
		declared int64
		want     int
	}{
		{"honest", gop, int64(len(gop)), http.StatusNoContent},
		{"no Content-Length", gop, -1, http.StatusLengthRequired},
		{"short body", gop[:50], 100, http.StatusBadRequest},
		{"header-only claim of the limit", gop[:3], maxChunkBytes, http.StatusBadRequest},
	}
	for seq, tc := range cases {
		req := httptest.NewRequest(http.MethodPut, gopPath("cam", "p0", seq), bytes.NewReader(tc.body))
		req.ContentLength = tc.declared
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; rec.Code != tc.want || grew > 2*putPrealloc {
			t.Errorf("%s: status %d after allocating %d bytes; want %d within %d", tc.name, rec.Code, grew, tc.want, 2*putPrealloc)
		}
		n, err := sys.Backend().GOPSize("cam", "p0", seq)
		if tc.want == http.StatusNoContent && (err != nil || n != int64(len(tc.body))) {
			t.Errorf("%s: stored %d bytes, err %v; want %d", tc.name, n, err, len(tc.body))
		}
		if tc.want != http.StatusNoContent && !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: refused PUT stored a GOP: stat err %v", tc.name, err)
		}
	}
}
