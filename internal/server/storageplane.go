package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// This file implements the GOP storage plane: the endpoints a router
// fleet (internal/router) uses to treat this vssd node as one remote
// replica store. They map 1:1 onto storage.Backend — raw GOP bytes at
// logical addresses, below the video API — and route through the
// system's instrumented backend, so storage-plane traffic counts in the
// same /metrics storage section as the node's own. See docs/WIRE.md for
// the normative wire description.
//
//	GET    /healthz                          liveness + backend identity
//	PUT    /gops/{video}/{phys}/{seq}        store one GOP (raw body)
//	GET    /gops/{video}/{phys}/{seq}        fetch one GOP (raw body)
//	HEAD   /gops/{video}/{phys}/{seq}        stored size (X-VSS-GOP-Size)
//	DELETE /gops/{video}/{phys}/{seq}        remove one GOP (idempotent)
//	POST   /gops/{video}/{phys}/{seq}/link   link/copy to ?video&phys&seq
//	DELETE /gops/{video}/{phys}              remove one physical video
//	DELETE /gops/{video}                     remove one logical video
//	GET    /gops                             walk: framed JSON entries

// storageError maps backend errors onto status codes: a missing GOP is
// 404 (the remote backend turns it back into fs.ErrNotExist), anything
// else is the node's fault.
func storageError(w http.ResponseWriter, err error) {
	if errors.Is(err, fs.ErrNotExist) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// gopSeq parses the {seq} path value.
func gopSeq(r *http.Request) (int, bool) {
	seq, err := strconv.Atoi(r.PathValue("seq"))
	return seq, err == nil && seq >= 0
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"ok":      true,
		"backend": s.sys.BackendStats().Backend,
		"videos":  len(s.sys.Videos()),
	})
}

// putPrealloc bounds what a GOP PUT's declared length reserves before
// its body arrives: a typical encoded GOP fits in one allocation, and a
// header alone cannot pin much memory.
const putPrealloc = 1 << 20

func (s *Server) handleGOPWrite(w http.ResponseWriter, r *http.Request) {
	seq, ok := gopSeq(r)
	if !ok {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	// One GOP per request, raw body: Content-Length plus TCP framing is
	// all the integrity the single-object plane needs (the batch ingest
	// endpoint is the one that frames chunks), so a PUT must declare its
	// length. The declared length sizes the buffer, but a header alone
	// reserves at most putPrealloc; a longer body grows the buffer as its
	// bytes arrive, up to the MaxBytesReader bound. The bytes.MinRead of
	// slack lets ReadFrom see EOF without growing a full buffer.
	n := r.ContentLength
	if n < 0 {
		http.Error(w, "GOP PUT needs a Content-Length", http.StatusLengthRequired)
		return
	}
	if n > maxChunkBytes {
		http.Error(w, fmt.Sprintf("GOP of %d bytes exceeds limit %d", n, maxChunkBytes), http.StatusBadRequest)
		return
	}
	body := bytes.NewBuffer(make([]byte, 0, min(n, putPrealloc)+bytes.MinRead))
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxChunkBytes)); err != nil || int64(body.Len()) != n {
		http.Error(w, fmt.Sprintf("bad body: %d of %d declared bytes: %v", body.Len(), n, err), http.StatusBadRequest)
		return
	}
	data := body.Bytes()
	if err := s.sys.Backend().WriteGOP(r.PathValue("video"), r.PathValue("phys"), seq, data); err != nil {
		storageError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGOPRead(w http.ResponseWriter, r *http.Request) {
	seq, ok := gopSeq(r)
	if !ok {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	video, phys := r.PathValue("video"), r.PathValue("phys")
	if r.Method == http.MethodHead {
		n, err := s.sys.Backend().GOPSize(video, phys, seq)
		if err != nil {
			storageError(w, err)
			return
		}
		w.Header().Set("X-VSS-GOP-Size", strconv.FormatInt(n, 10))
		w.WriteHeader(http.StatusOK)
		return
	}
	// Join the propagated trace (the router forwards its ID in the wire
	// header), so the node-local fetch shows up under the same trace ID
	// the client and router saw — and in this node's own slow ring.
	tr := obs.StartTrace(r.Header.Get(obs.TraceHeader), "gop_read")
	w.Header().Set(obs.TraceHeader, tr.ID())
	ctx := obs.WithTrace(r.Context(), tr)
	start := time.Now()
	data, err := storage.ReadGOPCtx(ctx, s.sys.Backend(), video, phys, seq)
	obs.Observe(ctx, s.pipe, obs.StageFetch, time.Since(start))
	status := http.StatusOK
	if err != nil {
		status = http.StatusInternalServerError
		if errors.Is(err, fs.ErrNotExist) {
			status = http.StatusNotFound
		}
	}
	defer func() {
		req := obs.Request{
			Video:  video,
			Detail: phys + "/" + strconv.Itoa(seq),
			Status: status,
			Bytes:  int64(len(data)),
		}
		snap := tr.Snapshot(req, time.Now())
		s.traces.Add(snap)
		if s.log != nil {
			s.log.Info(snap.Name,
				"trace", snap.ID, "video", snap.Video, "detail", snap.Detail,
				"status", snap.Status, "bytes", snap.Bytes,
				"total_ms", snap.DurationMillis, "stages", snap.StageSummary(),
			)
		}
	}()
	if err != nil {
		storageError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-VSS-GOP-Size", strconv.FormatInt(int64(len(data)), 10))
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Server) handleGOPDelete(w http.ResponseWriter, r *http.Request) {
	seq, ok := gopSeq(r)
	if !ok {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	if err := s.sys.Backend().DeleteGOP(r.PathValue("video"), r.PathValue("phys"), seq); err != nil {
		storageError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGOPLink(w http.ResponseWriter, r *http.Request) {
	srcSeq, ok := gopSeq(r)
	if !ok {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	dstSeq, err := strconv.Atoi(q.Get("seq"))
	if err != nil || dstSeq < 0 || q.Get("video") == "" || q.Get("phys") == "" {
		http.Error(w, "link needs video, phys, and seq query parameters", http.StatusBadRequest)
		return
	}
	err = s.sys.Backend().LinkGOP(
		r.PathValue("video"), r.PathValue("phys"), srcSeq,
		q.Get("video"), q.Get("phys"), dstSeq)
	if err != nil {
		storageError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGOPDeletePhysical(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.Backend().DeletePhysical(r.PathValue("video"), r.PathValue("phys")); err != nil {
		storageError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGOPDeleteVideo(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.Backend().DeleteVideo(r.PathValue("video")); err != nil {
		storageError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// gopEntry is one walked GOP on the wire (GET /gops).
type gopEntry struct {
	Video string `json:"v"`
	Phys  string `json:"p"`
	Seq   int    `json:"s"`
	Size  int64  `json:"n"`
}

func (s *Server) handleGOPWalk(w http.ResponseWriter, r *http.Request) {
	// The walk streams one framed JSON chunk per GOP and ends with the
	// zero-length terminator — the read path's framing, reused so a
	// truncated enumeration (walk error mid-stream, dead node) can never
	// be mistaken for a complete one. Entries are buffered: a full tree
	// walk is thousands of tiny writes.
	w.Header().Set("Content-Type", "application/octet-stream")
	bw := bufio.NewWriterSize(w, 32<<10)
	err := s.sys.Backend().Walk(func(video, physDir string, seq int, size int64) error {
		payload, err := json.Marshal(gopEntry{Video: video, Phys: physDir, Seq: seq, Size: size})
		if err != nil {
			return err
		}
		return writeChunk(bw, payload)
	})
	if err != nil {
		// Body bytes may be committed; ending without a terminator is the
		// error signal.
		return
	}
	if err := writeChunk(bw, nil); err != nil {
		return
	}
	bw.Flush()
}
