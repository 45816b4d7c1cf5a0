package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// This file is the client side of the GOP storage plane
// (storageplane.go): the methods that make *Client satisfy
// storage.NodeClient, so storage.Remote (and through it the router
// fleet) can use a vssd node as one replica store. Failed responses are
// *StatusError, which is what Remote's retry policy and fs.ErrNotExist
// normalization key on.

// gopPath builds the /gops path for one GOP address.
func gopPath(video, physDir string, seq int) string {
	return "/gops/" + url.PathEscape(video) + "/" + url.PathEscape(physDir) + "/" + strconv.Itoa(seq)
}

// Addr identifies the node for health stats and error messages.
func (c *Client) Addr() string { return c.Base }

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errorFrom(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// GOPWrite stores one GOP on the node.
func (c *Client) GOPWrite(ctx context.Context, video, physDir string, seq int, data []byte) error {
	resp, err := c.do(ctx, http.MethodPut, gopPath(video, physDir, seq), bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	return nil
}

// GOPRead fetches one GOP's bytes.
func (c *Client) GOPRead(ctx context.Context, video, physDir string, seq int) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, gopPath(video, physDir, seq), nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errorFrom(resp)
	}
	defer resp.Body.Close()
	// The node always declares the length, so the GOP is read into one
	// allocation of exactly that size. The length came off the wire:
	// validate it, and read under the framed streams' allocation bound.
	n := resp.ContentLength
	if n < 0 {
		return nil, fmt.Errorf("gop read: node sent no Content-Length")
	}
	if n > maxChunkBytes {
		return nil, fmt.Errorf("gop read: node claims %d bytes, limit %d", n, maxChunkBytes)
	}
	var a chunkArena
	data, err := a.read(resp.Body, int(n))
	if err != nil {
		return nil, fmt.Errorf("gop read truncated: got less than the %d bytes declared: %w", n, err)
	}
	// X-VSS-GOP-Size is the node's claim about what it stored; a body of
	// another length was cut short, or padded, on the way.
	if want, err := strconv.Atoi(resp.Header.Get("X-VSS-GOP-Size")); err == nil {
		if want > len(data) {
			return nil, fmt.Errorf("gop read truncated: got %d bytes, node advertised %d", len(data), want)
		}
		if want < len(data) {
			return nil, fmt.Errorf("gop read longer than advertised: got %d bytes, node advertised %d", len(data), want)
		}
	}
	return data, nil
}

// GOPStat returns one GOP's stored size without reading it.
func (c *Client) GOPStat(ctx context.Context, video, physDir string, seq int) (int64, error) {
	resp, err := c.do(ctx, http.MethodHead, gopPath(video, physDir, seq), nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// HEAD responses have no body, so errorFrom yields an empty Msg —
		// the status line still carries the code Remote needs.
		return 0, errorFrom(resp)
	}
	n, err := strconv.ParseInt(resp.Header.Get("X-VSS-GOP-Size"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad X-VSS-GOP-Size header: %w", err)
	}
	return n, nil
}

// GOPDelete removes one GOP (idempotent on the server).
func (c *Client) GOPDelete(ctx context.Context, video, physDir string, seq int) error {
	resp, err := c.do(ctx, http.MethodDelete, gopPath(video, physDir, seq), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	return nil
}

// GOPLink links or copies a stored GOP to a new address on the node.
func (c *Client) GOPLink(ctx context.Context, video, srcDir string, srcSeq int, dstVideo, dstDir string, dstSeq int) error {
	q := url.Values{}
	q.Set("video", dstVideo)
	q.Set("phys", dstDir)
	q.Set("seq", strconv.Itoa(dstSeq))
	path := gopPath(video, srcDir, srcSeq) + "/link?" + q.Encode()
	resp, err := c.do(ctx, http.MethodPost, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	return nil
}

// GOPDeletePhysical removes every GOP of one physical video.
func (c *Client) GOPDeletePhysical(ctx context.Context, video, physDir string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/gops/"+url.PathEscape(video)+"/"+url.PathEscape(physDir), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	return nil
}

// GOPDeleteVideo removes every GOP stored under one logical video.
func (c *Client) GOPDeleteVideo(ctx context.Context, video string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/gops/"+url.PathEscape(video), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	return nil
}

// GOPWalk enumerates every GOP on the node. The stream is framed like a
// read response — one JSON entry per chunk, zero-length terminator — so
// a walk cut off by a dying node is an error, never a silently short
// listing.
func (c *Client) GOPWalk(ctx context.Context, fn func(video, physDir string, seq int, size int64) error) error {
	resp, err := c.do(ctx, http.MethodGet, "/gops", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errorFrom(resp)
	}
	cr := &chunkReader{body: resp.Body}
	for {
		entry, err := cr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("walk: %w", err)
		}
		var e gopEntry
		if err := json.Unmarshal(entry, &e); err != nil {
			return fmt.Errorf("bad walk entry: %w", err)
		}
		if err := fn(e.Video, e.Phys, e.Seq, e.Size); err != nil {
			return err
		}
	}
}
