package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Client is a minimal Go client for the vssd wire protocol, used by the
// examples, the serving benchmark, and the smoke tests. It is not a
// public SDK — external callers can speak the protocol with any HTTP
// client — but it keeps the framing logic in one place.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:7744".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// Name optionally identifies this client for per-client admission
	// limits (sent as X-VSS-Client).
	Name string
}

// defaultClient is the fallback HTTP client. http.DefaultTransport caps
// idle connections per host at 2, so a benchmark (or any fan-out caller)
// driving hundreds of concurrent streams through one vssd would tear
// down and re-dial almost every connection; this transport keeps them
// alive so steady-state serving pays the handshake once.
var defaultClient = func() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 1024
	t.MaxIdleConnsPerHost = 512
	return &http.Client{Transport: t}
}()

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if c.Name != "" {
		req.Header.Set("X-VSS-Client", c.Name)
	}
	// Propagate an active trace so the remote hop joins it: this is how
	// one trace ID follows a read across processes (client → router →
	// storage node).
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	return c.http().Do(req)
}

// StatusError is a non-2xx server response. It keeps the HTTP status
// code machine-readable so callers can tell a definitive server verdict
// (4xx: retrying cannot help) from a node fault (5xx / transport
// errors); storage.Remote keys its retry policy on HTTPStatus. A 404
// unwraps to fs.ErrNotExist so missing-GOP probes compose with
// errors.Is like every other storage.Backend.
type StatusError struct {
	Code   int    // HTTP status code, e.g. 404
	Status string // HTTP status line, e.g. "404 Not Found"
	Msg    string // response body (truncated)
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Status, e.Msg)
}

// HTTPStatus returns the response status code.
func (e *StatusError) HTTPStatus() int { return e.Code }

// Unwrap maps 404 onto fs.ErrNotExist.
func (e *StatusError) Unwrap() error {
	if e.Code == http.StatusNotFound {
		return fs.ErrNotExist
	}
	return nil
}

// errorFrom drains a failed response into a *StatusError.
func errorFrom(resp *http.Response) error {
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &StatusError{
		Code:   resp.StatusCode,
		Status: resp.Status,
		Msg:    string(bytes.TrimSpace(msg)),
	}
}

// Create registers a video.
func (c *Client) Create(ctx context.Context, name string, budget int64) error {
	path := "/videos/" + url.PathEscape(name)
	if budget != 0 {
		path += "?budget=" + strconv.FormatInt(budget, 10)
	}
	resp, err := c.do(ctx, http.MethodPut, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return errorFrom(resp)
	}
	return nil
}

// Delete removes a video.
func (c *Client) Delete(ctx context.Context, name string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/videos/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	return nil
}

// WriteGOPs appends already-encoded GOPs to a video. Empty GOPs are
// rejected up front: a zero-length chunk is the wire terminator, so
// framing one would silently truncate the batch server-side.
func (c *Client) WriteGOPs(ctx context.Context, name string, fps int, gops [][]byte) error {
	size := chunkHeaderLen
	for i, g := range gops {
		if len(g) == 0 {
			return fmt.Errorf("empty GOP at index %d (zero-length chunks terminate the stream)", i)
		}
		size += chunkHeaderLen + len(g)
	}
	body := make([]byte, 0, size)
	for _, g := range gops {
		body = append(appendChunkHeader(body, len(g)), g...)
	}
	body = appendChunkHeader(body, 0)
	path := fmt.Sprintf("/videos/%s/gops?fps=%d", url.PathEscape(name), fps)
	resp, err := c.do(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errorFrom(resp)
	}
	return nil
}

// ReadHeader describes a streaming read response.
type ReadHeader struct {
	Width, Height, FPS int
	Codec              string
	Format             frame.PixelFormat // raw reads
	FrameBytes         int               // raw reads: bytes per frame payload
	CacheHit           bool
}

// StreamingRead issues a read and returns the response header plus a
// chunk iterator. next returns io.EOF after the terminator chunk; a
// closed connection without a terminator surfaces as an error, so
// truncated streams are never mistaken for complete ones. Callers must
// drain next to io.EOF or call stop.
func (c *Client) StreamingRead(ctx context.Context, name, query string) (hdr ReadHeader, next func() ([]byte, error), stop func(), err error) {
	hdr, cr, err := c.stream(ctx, name, query)
	if err != nil {
		return hdr, nil, nil, err
	}
	return hdr, cr.next, func() { cr.body.Close() }, nil
}

// stream issues a read and returns its header and the reader of its
// framed body; the caller closes cr.body.
func (c *Client) stream(ctx context.Context, name, query string) (hdr ReadHeader, cr *chunkReader, err error) {
	path := "/videos/" + url.PathEscape(name) + "/read"
	if query != "" {
		path += "?" + query
	}
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return hdr, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return hdr, nil, errorFrom(resp)
	}
	h := resp.Header
	hdr.Width, _ = strconv.Atoi(h.Get("X-VSS-Width"))
	hdr.Height, _ = strconv.Atoi(h.Get("X-VSS-Height"))
	hdr.FPS, _ = strconv.Atoi(h.Get("X-VSS-FPS"))
	hdr.Codec = h.Get("X-VSS-Codec")
	hdr.FrameBytes, _ = strconv.Atoi(h.Get("X-VSS-Frame-Bytes"))
	hdr.CacheHit = h.Get("X-VSS-Cache") == "hit"
	if f := h.Get("X-VSS-Format"); f != "" {
		hdr.Format, _ = frame.ParsePixelFormat(f)
	}
	return hdr, &chunkReader{body: resp.Body}, nil
}

// QueryMatch is one predicate-read match off the wire: the source frame
// index and its RGB pixel payload.
type QueryMatch struct {
	Index int
	Data  []byte
}

// Query issues a predicate read (where=pred over [t0, t1); t1 <= 0
// means the video end) and drains the stream, returning the response
// header and the matches in frame order. Each wire chunk carries one
// match — a 4-byte big-endian source frame index followed by one RGB
// frame of exactly hdr.FrameBytes — so malformed chunk lengths are
// rejected rather than mis-split.
func (c *Client) Query(ctx context.Context, name, pred string, t0, t1 float64) (ReadHeader, []QueryMatch, error) {
	q := url.Values{"where": {pred}}
	if t0 != 0 {
		q.Set("start", strconv.FormatFloat(t0, 'g', -1, 64))
	}
	if t1 != 0 {
		q.Set("end", strconv.FormatFloat(t1, 'g', -1, 64))
	}
	hdr, cr, err := c.stream(ctx, name, q.Encode())
	if err != nil {
		return hdr, nil, err
	}
	defer cr.body.Close()
	var matches []QueryMatch
	for {
		chunk, err := cr.next()
		if err == io.EOF {
			return hdr, matches, nil
		}
		if err != nil {
			return hdr, nil, err
		}
		if len(chunk) != matchIndexLen+hdr.FrameBytes {
			return hdr, nil, fmt.Errorf("match chunk is %d bytes, want %d+%d", len(chunk), matchIndexLen, hdr.FrameBytes)
		}
		matches = append(matches, QueryMatch{
			Index: int(binary.BigEndian.Uint32(chunk)),
			Data:  chunk[matchIndexLen:],
		})
	}
}

// ReadAll issues a read and drains the whole stream, returning the raw
// chunk payloads (GOPs for compressed reads, frame batches for raw).
func (c *Client) ReadAll(ctx context.Context, name, query string) (ReadHeader, [][]byte, error) {
	hdr, cr, err := c.stream(ctx, name, query)
	if err != nil {
		return hdr, nil, err
	}
	defer cr.body.Close()
	chunks, err := cr.all()
	return hdr, chunks, err
}

// Metrics fetches and decodes the /metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var snap MetricsSnapshot
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, errorFrom(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(data, &snap)
}

// Traces fetches and decodes the /debug/traces slow-trace dump.
func (c *Client) Traces(ctx context.Context) (TraceDump, error) {
	var dump TraceDump
	resp, err := c.do(ctx, http.MethodGet, "/debug/traces", nil)
	if err != nil {
		return dump, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dump, errorFrom(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return dump, err
	}
	return dump, json.Unmarshal(data, &dump)
}

// Stat fetches a video's metadata.
func (c *Client) Stat(ctx context.Context, name string) (VideoStat, error) {
	var stat VideoStat
	resp, err := c.do(ctx, http.MethodGet, "/videos/"+url.PathEscape(name), nil)
	if err != nil {
		return stat, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return stat, errorFrom(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return stat, err
	}
	return stat, json.Unmarshal(data, &stat)
}

// Maintain triggers one maintenance pass.
func (c *Client) Maintain(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodPost, "/maintain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errorFrom(resp)
	}
	return nil
}
