// Package server implements vssd's HTTP serving subsystem: the VSS store
// exposed over the network with the production-shape concerns the library
// cannot express — an admission controller that bounds in-flight reads
// (with a bounded wait queue and per-client limits), streaming read
// responses backed by core.ReadStream so a disconnected client cancels
// its in-flight decode work, a byte-bounded LRU of hot encoded responses,
// and a /metrics endpoint surfacing read statistics, cache hit rates,
// deferred-compression levels, and queue depths.
//
// # Endpoints
//
//	GET    /videos                 list videos
//	PUT    /videos/{name}          create (?budget=bytes; <0 unlimited)
//	DELETE /videos/{name}          delete
//	GET    /videos/{name}          metadata and physical-view summary
//	POST   /videos/{name}/gops     GOP-level encoded write (?fps=), body framed
//	GET    /videos/{name}/read     streaming read (spec in query parameters)
//	GET    /metrics                live metrics snapshot (JSON, or
//	                               Prometheus text with ?format=prometheus)
//	GET    /debug/traces           N slowest recent request traces (JSON)
//	POST   /maintain               run one maintenance pass
//	GET    /healthz                liveness probe (storage plane)
//
// plus the GOP storage plane under /gops — raw GOP bytes at backend
// addresses, used by the router fleet to treat this node as a remote
// replica store; see storageplane.go and docs/WIRE.md.
//
// # Wire format
//
// Binary bodies — the write request body and the read response body — are
// sequences of framed chunks: a 4-byte big-endian payload length followed
// by the payload. A read stream is terminated by a zero-length chunk; if
// the connection closes without one, the client knows the stream was
// truncated (server-side error or cancellation). For compressed reads
// each chunk is one encoded GOP; for raw reads each chunk is a batch of
// frames, concatenated in the pixel layout the response headers describe.
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/vss"
)

// Config tunes the serving subsystem. The zero value selects defaults
// sized for a single-node deployment.
type Config struct {
	// MaxInFlightReads bounds concurrently executing reads (admitted past
	// the queue). 0 defaults to 2*GOMAXPROCS: enough to keep the store's
	// worker pool busy while bounding memory.
	MaxInFlightReads int
	// MaxQueuedReads bounds reads waiting for a slot before new arrivals
	// are rejected with 429. 0 defaults to 4*MaxInFlightReads.
	MaxQueuedReads int
	// MaxReadsPerClient bounds one client's in-flight + queued reads
	// (keyed by X-VSS-Client, falling back to the remote IP). 0 defaults
	// to MaxInFlightReads.
	MaxReadsPerClient int
	// CacheBytes bounds the hot-response LRU. 0 disables response
	// caching; the store's own materialized-view cache still applies.
	CacheBytes int64
	// RequestLog enables one structured slog line per finished read
	// (trace ID, video, status, bytes, TTFB, stage breakdown) on the
	// default logger.
	RequestLog bool
	// DefaultCodec is the output codec applied to reads whose query omits
	// codec= entirely (an explicit codec=raw still means raw). Empty means
	// raw frames, the historical behavior. Must name a registered codec;
	// vssd validates the flag at startup.
	DefaultCodec vss.Codec
}

func (c Config) withDefaults() Config {
	if c.MaxInFlightReads <= 0 {
		c.MaxInFlightReads = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedReads <= 0 {
		c.MaxQueuedReads = 4 * c.MaxInFlightReads
	}
	if c.MaxReadsPerClient <= 0 {
		c.MaxReadsPerClient = c.MaxInFlightReads
	}
	return c
}

// Server serves one vss.System over HTTP. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	sys   *vss.System
	cfg   Config
	adm   *admission
	cache *responseCache
	bufs  bufPool
	m     metrics
	mux   *http.ServeMux

	pipe   *obs.Pipeline // the store's per-stage histograms (never nil)
	traces *obs.SlowRing // obs.DefaultSlowTraces slowest recent traces, served by /debug/traces
	log    *slog.Logger  // per-request log, nil unless cfg.RequestLog
}

// New builds a Server around an open system.
func New(sys *vss.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:    sys,
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxInFlightReads, cfg.MaxQueuedReads, cfg.MaxReadsPerClient),
		cache:  newResponseCache(cfg.CacheBytes),
		mux:    http.NewServeMux(),
		pipe:   sys.Store().Pipeline(),
		traces: obs.NewSlowRing(obs.DefaultSlowTraces),
	}
	if cfg.RequestLog {
		s.log = slog.Default()
	}
	s.mux.HandleFunc("GET /videos", s.handleList)
	s.mux.HandleFunc("GET /videos/{name}", s.handleStat)
	s.mux.HandleFunc("PUT /videos/{name}", s.handleCreate)
	s.mux.HandleFunc("DELETE /videos/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /videos/{name}/gops", s.handleWriteGOPs)
	s.mux.HandleFunc("GET /videos/{name}/read", s.handleRead)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("POST /maintain", s.handleMaintain)
	// Storage plane: the GOP-level endpoints a router fleet uses to treat
	// this node as a remote replica store (storageplane.go).
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("PUT /gops/{video}/{phys}/{seq}", s.handleGOPWrite)
	s.mux.HandleFunc("GET /gops/{video}/{phys}/{seq}", s.handleGOPRead)
	s.mux.HandleFunc("HEAD /gops/{video}/{phys}/{seq}", s.handleGOPRead)
	s.mux.HandleFunc("DELETE /gops/{video}/{phys}/{seq}", s.handleGOPDelete)
	s.mux.HandleFunc("POST /gops/{video}/{phys}/{seq}/link", s.handleGOPLink)
	s.mux.HandleFunc("DELETE /gops/{video}/{phys}", s.handleGOPDeletePhysical)
	s.mux.HandleFunc("DELETE /gops/{video}", s.handleGOPDeleteVideo)
	s.mux.HandleFunc("GET /gops", s.handleGOPWalk)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusFor maps a store error onto its response status code.
func statusFor(err error) int {
	switch {
	case errors.Is(err, vss.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, vss.ErrExists):
		return http.StatusConflict
	case errors.Is(err, vss.ErrInvalidSpec):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// httpError maps store errors onto status codes.
func httpError(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), statusFor(err))
}

// statusClientGone records "client closed request" (the nginx 499
// convention) in request logs and trace snapshots. It is never sent on
// the wire — there is no client left to send it to.
const statusClientGone = 499

// clientFault reports whether a read failure was the client's own doing —
// those map to 4xx and must not count toward server read-error metrics.
func clientFault(err error) bool {
	return errors.Is(err, vss.ErrNotFound) || errors.Is(err, vss.ErrInvalidSpec)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientKey identifies a client for per-client admission limits.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-VSS-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.sys.Videos()
	sort.Strings(names)
	writeJSON(w, map[string][]string{"videos": names})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var budget int64
	if b := r.URL.Query().Get("budget"); b != "" {
		var err error
		if budget, err = strconv.ParseInt(b, 10, 64); err != nil {
			http.Error(w, "bad budget: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if err := s.sys.Create(name, budget); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.sys.Delete(name); err != nil {
		httpError(w, err)
		return
	}
	s.cache.removeVideo(name)
	w.WriteHeader(http.StatusNoContent)
}

// ViewStat summarizes one physical view in a stat response.
type ViewStat struct {
	ID       int    `json:"id"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	FPS      int    `json:"fps"`
	Codec    string `json:"codec"`
	Quality  int    `json:"quality"`
	GOPs     int    `json:"gops"`
	Bytes    int64  `json:"bytes"`
	Original bool   `json:"original"`
}

// VideoStat is the stat response for one video.
type VideoStat struct {
	Name     string     `json:"name"`
	Duration float64    `json:"duration"`
	FPS      int        `json:"fps"`
	Width    int        `json:"width"`
	Height   int        `json:"height"`
	Budget   int64      `json:"budget"`
	Bytes    int64      `json:"bytes"`
	Views    []ViewStat `json:"views"`
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, phys, err := s.sys.Store().Info(name)
	if err != nil {
		httpError(w, err)
		return
	}
	stat := VideoStat{
		Name: v.Name, Duration: v.Duration, FPS: v.FPS,
		Width: v.Width, Height: v.Height, Budget: v.Budget,
	}
	sort.Slice(phys, func(i, j int) bool { return phys[i].ID < phys[j].ID })
	for i := range phys {
		p := &phys[i]
		stat.Bytes += p.Bytes()
		stat.Views = append(stat.Views, ViewStat{
			ID: p.ID, Width: p.Width, Height: p.Height, FPS: p.FPS,
			Codec: string(p.Codec), Quality: p.Quality,
			GOPs: len(p.GOPs), Bytes: p.Bytes(), Original: p.Orig,
		})
	}
	writeJSON(w, stat)
}

// maxWriteBody caps a single GOP-write request (DoS hygiene; bulk loads
// should be split across requests anyway so commits interleave fairly).
const maxWriteBody = 1 << 30

func (s *Server) handleWriteGOPs(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fps, err := strconv.Atoi(r.URL.Query().Get("fps"))
	if err != nil || fps <= 0 {
		http.Error(w, "fps query parameter required (positive integer)", http.StatusBadRequest)
		return
	}
	gops, err := readChunks(http.MaxBytesReader(w, r.Body, maxWriteBody))
	if err != nil {
		http.Error(w, "bad GOP framing: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(gops) == 0 {
		http.Error(w, "no GOPs in request body", http.StatusBadRequest)
		return
	}
	if err := s.sys.WriteEncoded(name, fps, gops); err != nil {
		httpError(w, err)
		return
	}
	// The video grew: cached responses for it are stale prefixes now.
	s.cache.invalidateVideo(name)
	s.m.writes.Add(1)
	s.m.gopsWritten.Add(int64(len(gops)))
	writeJSON(w, map[string]int{"gops": len(gops)})
}

// parseReadSpec builds a vss.ReadSpec from read query parameters, plus a
// canonical cache key suffix covering every parameter that affects bytes.
// def is the codec applied when the query has no codec= at all (the cache
// key embeds the resolved codec, so defaulted and explicit requests for
// the same codec share entries).
func parseReadSpec(q map[string][]string, def vss.Codec) (vss.ReadSpec, string, error) {
	get := func(k string) string {
		if v, ok := q[k]; ok && len(v) > 0 {
			return v[0]
		}
		return ""
	}
	var spec vss.ReadSpec
	var err error
	num := func(k string) float64 {
		s := get(k)
		if s == "" || err != nil {
			return 0
		}
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil {
			err = fmt.Errorf("bad %s: %v", k, perr)
		}
		return v
	}
	spec.T.Start = num("start")
	spec.T.End = num("end")
	spec.T.FPS = int(num("fps"))
	spec.S.Width = int(num("width"))
	spec.S.Height = int(num("height"))
	spec.P.Quality = int(num("quality"))
	spec.P.MinPSNR = num("minpsnr")
	if err != nil {
		return spec, "", err
	}
	if roi := get("roi"); roi != "" {
		parts := strings.Split(roi, ",")
		if len(parts) != 4 {
			return spec, "", fmt.Errorf("bad roi: want x0,y0,x1,y1")
		}
		var r vss.Rect
		for i, dst := range []*int{&r.X0, &r.Y0, &r.X1, &r.Y1} {
			v, perr := strconv.Atoi(strings.TrimSpace(parts[i]))
			if perr != nil {
				return spec, "", fmt.Errorf("bad roi: %v", perr)
			}
			*dst = v
		}
		spec.S.ROI = &r
	}
	cd, hasCodec := "", false
	if v, ok := q["codec"]; ok && len(v) > 0 {
		cd, hasCodec = v[0], true
	}
	if !hasCodec && def != "" && def != vss.RawCodec {
		cd = string(def)
	}
	if cd != "" && cd != "raw" {
		spec.P.Codec = vss.Codec(cd)
		// Validate here, not just in the store's resolve: the codec string
		// is embedded in the response-cache key, and the cache is consulted
		// before the store ever sees the spec — a free-form codec must not
		// reach either.
		if !spec.P.Codec.Valid() {
			return spec, "", fmt.Errorf("unknown codec %q", cd)
		}
	}
	if f := get("format"); f != "" {
		pf, perr := frame.ParsePixelFormat(f)
		if perr != nil {
			return spec, "", perr
		}
		spec.P.Format = pf
	}
	key := fmt.Sprintf("s=%g,e=%g,f=%d,w=%d,h=%d,c=%s,q=%d,p=%g,fmt=%d,roi=%v",
		spec.T.Start, spec.T.End, spec.T.FPS, spec.S.Width, spec.S.Height,
		spec.P.Codec, spec.P.Quality, spec.P.MinPSNR, spec.P.Format, spec.S.ROI)
	return spec, key, nil
}

// readObs accumulates one request's outcome for the slow-trace ring and
// the optional per-request log, finalized exactly once when the handler
// returns. A zero status means the success path ran to completion (200).
type readObs struct {
	s      *Server
	tr     *obs.Trace
	video  string
	detail string
	status int
	bytes  int64
	ttfb   time.Duration
}

// finish snapshots the trace into the slow ring and emits the request
// log line. The snapshot is taken once here, so ring and log agree.
func (ro *readObs) finish() {
	if ro.status == 0 {
		ro.status = http.StatusOK
	}
	snap := ro.tr.Snapshot(obs.Request{
		Video: ro.video, Detail: ro.detail,
		Status: ro.status, Bytes: ro.bytes, TTFB: ro.ttfb,
	}, time.Now())
	ro.s.traces.Add(snap)
	if ro.s.log != nil {
		ro.s.log.Info(snap.Name,
			"trace", snap.ID,
			"video", snap.Video,
			"detail", snap.Detail,
			"status", snap.Status,
			"bytes", snap.Bytes,
			"ttfb_ms", snap.TTFBMillis,
			"total_ms", snap.DurationMillis,
			"stages", snap.StageSummary(),
		)
	}
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now() // TTFB clock starts before admission queueing
	if where := r.URL.Query().Get("where"); where != "" {
		s.handleQuery(w, r, arrived, where)
		return
	}
	name := r.PathValue("name")
	spec, key, err := parseReadSpec(r.URL.Query(), s.cfg.DefaultCodec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Trace the request: resume an upstream-minted ID from the wire
	// header or mint a fresh one, echo it back, and ride the context so
	// every pipeline stage below (and every remote hop the storage layer
	// makes) folds into the same trace.
	tr := obs.StartTrace(r.Header.Get(obs.TraceHeader), "read")
	w.Header().Set(obs.TraceHeader, tr.ID())
	ctx := obs.WithTrace(r.Context(), tr)
	ro := &readObs{s: s, tr: tr, video: name, detail: key}
	defer ro.finish()

	// Admission: bound the reads in flight before touching the store.
	admStart := time.Now()
	release, err := s.adm.acquire(ctx, clientKey(r))
	obs.Observe(ctx, s.pipe, obs.StageAdmission, time.Since(admStart))
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull), errors.Is(err, errPerClientLimit):
			s.m.admissionRejected.Add(1)
			ro.status = http.StatusTooManyRequests
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default: // client disconnected while queued
			s.m.admissionAborted.Add(1)
			ro.status = statusClientGone
		}
		return
	}
	defer release()
	s.m.readsStarted.Add(1)

	compressed := spec.P.Codec != "" && spec.P.Codec != vss.RawCodec
	// %q-quote the video name so the key is injective: names may contain
	// any of the spec-suffix characters, and a separator-only join would
	// let a crafted (name, spec) pair collide with another video's entry.
	cacheKey := fmt.Sprintf("%q|%s", name, key)
	var cacheGen uint64
	cacheable := compressed && s.cache.enabled()
	if cacheable {
		if e, ok := s.cache.get(cacheKey); ok {
			s.m.cacheHits.Add(1)
			s.replayCached(w, e, arrived, tr, ro)
			return
		}
		s.m.cacheMisses.Add(1)
		// Snapshot the invalidation generation BEFORE the read plans and
		// snapshots data, so a write landing mid-stream voids the insert.
		cacheGen = s.cache.generation(name)
	}

	// Stream the read: the request context is the read's context, so a
	// client that disconnects mid-stream cancels the remaining decode
	// work at the next GOP boundary.
	st, err := s.sys.ReadStream(ctx, name, spec)
	if err != nil {
		if !clientFault(err) {
			s.m.readErrors.Add(1)
		}
		ro.status = statusFor(err)
		httpError(w, err)
		return
	}
	defer st.Close()

	if !compressed && int64(spec.P.Format.Size(st.Width, st.Height)) > maxChunkBytes {
		// One frame must fit in one wire chunk; anything bigger (a >256MiB
		// frame needs an ~300-megapixel output) is an absurd request, not
		// a serving case.
		st.Close()
		ro.status = http.StatusBadRequest
		http.Error(w, "requested frame size exceeds the wire chunk limit", http.StatusBadRequest)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-VSS-Width", strconv.Itoa(st.Width))
	h.Set("X-VSS-Height", strconv.Itoa(st.Height))
	h.Set("X-VSS-FPS", strconv.Itoa(st.FPS))
	if compressed {
		h.Set("X-VSS-Codec", string(spec.P.Codec))
	} else {
		h.Set("X-VSS-Codec", "raw")
		h.Set("X-VSS-Format", spec.P.Format.String())
		h.Set("X-VSS-Frame-Bytes", strconv.Itoa(spec.P.Format.Size(st.Width, st.Height)))
	}
	flusher, _ := w.(http.Flusher)
	cw := s.bufs.get()
	cw.reset(w, flusher, func() {
		ro.ttfb = time.Since(arrived)
		s.m.ttfb.Observe(ro.ttfb)
	})
	cw.instrument(s.pipe, tr)
	defer func() {
		ro.bytes = cw.bytesOut
		s.m.bytesSent.Add(cw.bytesOut)
		s.m.flushes.Add(cw.flushes)
		s.m.flushCoalesced.Add(cw.coalesced)
		s.bufs.put(cw)
	}()

	// Accumulate compressed GOPs for a cache insert only while they could
	// possibly fit: with the cache disabled (or a response outgrowing it)
	// holding the full output would silently reinstate the ReadResult
	// memory footprint streaming exists to avoid. The chunkWriter never
	// retains batch.GOP (small GOPs are copied into its pooled buffer,
	// large ones written through), so the cache can safely keep it.
	var cached [][]byte
	var cachedBytes int64
	for {
		batch, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Distinguish "client went away" from a real read failure.
			// Before the first committed body byte an error response is
			// still possible; after it, the stream just ends without a
			// terminator chunk, so the client sees truncation, never
			// silent partial data.
			switch {
			case r.Context().Err() != nil:
				s.m.readsCancelled.Add(1)
				ro.status = statusClientGone
			case !cw.committed:
				cw.abort()
				s.m.readErrors.Add(1)
				ro.status = statusFor(err)
				httpError(w, err)
			default:
				s.m.readErrors.Add(1)
				ro.status = statusFor(err)
			}
			s.noteReadStats(st)
			return
		}
		var werr error
		if batch.GOP != nil {
			werr = cw.writeGOP(batch.GOP)
		} else {
			if len(batch.Frames) == 0 {
				continue // nothing to frame; zero-length chunks mean EOF
			}
			werr = cw.writeFrames(batch.Frames)
		}
		if werr != nil {
			s.m.readsCancelled.Add(1)
			ro.status = statusClientGone
			s.noteReadStats(st)
			return
		}
		if cacheable {
			cached = append(cached, batch.GOP)
			if cachedBytes += int64(len(batch.GOP)); cachedBytes > s.cache.maxBytes() {
				cacheable, cached = false, nil
			}
		}
	}
	if err := cw.finish(); err != nil { // clean-EOF terminator
		s.m.readsCancelled.Add(1)
		ro.status = statusClientGone
		s.noteReadStats(st)
		return
	}
	s.m.readsCompleted.Add(1)
	s.noteReadStats(st)
	if cacheable {
		s.cache.put(&cacheEntry{
			key: cacheKey, video: name, gops: cached,
			width: st.Width, height: st.Height, fps: st.FPS,
			codec: string(spec.P.Codec),
		}, cacheGen)
	}
}

// predicateExclusiveParams are the read parameters a predicate read
// rejects: where= scans the video's original frames and returns indexed
// RGB matches at source resolution, so transcode/resample/crop/format
// parameters have no meaning on it — failing loudly beats silently
// ignoring half the request.
var predicateExclusiveParams = []string{"codec", "width", "height", "fps", "quality", "minpsnr", "roi", "format"}

// handleQuery serves a predicate read (GET /videos/{name}/read?where=P):
// the wire framing matches a raw read except each chunk's payload is a
// 4-byte big-endian source frame index followed by one RGB frame (see
// docs/WIRE.md). Predicate responses are never response-cached — like
// raw reads, holding decoded frames is what streaming avoids.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, arrived time.Time, where string) {
	name := r.PathValue("name")
	q := r.URL.Query()
	for _, k := range predicateExclusiveParams {
		if q.Get(k) != "" {
			http.Error(w, fmt.Sprintf("where= cannot be combined with %s=", k), http.StatusBadRequest)
			return
		}
	}
	pred, err := vss.ParsePredicate(where)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var t0, t1 float64
	for _, p := range []struct {
		k   string
		dst *float64
	}{{"start", &t0}, {"end", &t1}} {
		if v := q.Get(p.k); v != "" {
			*p.dst, err = strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad %s: %v", p.k, err), http.StatusBadRequest)
				return
			}
		}
	}
	key := fmt.Sprintf("where=%s,s=%g,e=%g", pred, t0, t1)

	tr := obs.StartTrace(r.Header.Get(obs.TraceHeader), "query")
	w.Header().Set(obs.TraceHeader, tr.ID())
	ctx := obs.WithTrace(r.Context(), tr)
	ro := &readObs{s: s, tr: tr, video: name, detail: key}
	defer ro.finish()

	// Predicate reads ride the same admission controller as plain reads:
	// both decode GOPs on the shared worker pool, so both count against
	// the in-flight bound.
	admStart := time.Now()
	release, err := s.adm.acquire(ctx, clientKey(r))
	obs.Observe(ctx, s.pipe, obs.StageAdmission, time.Since(admStart))
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull), errors.Is(err, errPerClientLimit):
			s.m.admissionRejected.Add(1)
			ro.status = http.StatusTooManyRequests
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default: // client disconnected while queued
			s.m.admissionAborted.Add(1)
			ro.status = statusClientGone
		}
		return
	}
	defer release()
	s.m.queriesStarted.Add(1)

	st, err := s.sys.ReadStreamWhere(ctx, name, pred, t0, t1)
	if err != nil {
		if !clientFault(err) {
			s.m.readErrors.Add(1)
		}
		ro.status = statusFor(err)
		httpError(w, err)
		return
	}
	defer st.Close()

	frameBytes := vss.RGB.Size(st.Width, st.Height)
	if int64(frameBytes)+matchIndexLen > maxChunkBytes {
		ro.status = http.StatusBadRequest
		http.Error(w, "frame size exceeds the wire chunk limit", http.StatusBadRequest)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-VSS-Width", strconv.Itoa(st.Width))
	h.Set("X-VSS-Height", strconv.Itoa(st.Height))
	h.Set("X-VSS-FPS", strconv.Itoa(st.FPS))
	h.Set("X-VSS-Codec", "raw")
	h.Set("X-VSS-Format", vss.RGB.String())
	h.Set("X-VSS-Frame-Bytes", strconv.Itoa(frameBytes))
	// Echo the canonical predicate so clients see exactly what was
	// evaluated (ParsePredicate(canonical) reproduces it).
	h.Set("X-VSS-Predicate", pred.String())

	flusher, _ := w.(http.Flusher)
	cw := s.bufs.get()
	cw.reset(w, flusher, func() {
		ro.ttfb = time.Since(arrived)
		s.m.ttfb.Observe(ro.ttfb)
	})
	cw.instrument(s.pipe, tr)
	defer func() {
		ro.bytes = cw.bytesOut
		s.m.bytesSent.Add(cw.bytesOut)
		s.m.flushes.Add(cw.flushes)
		s.m.flushCoalesced.Add(cw.coalesced)
		s.bufs.put(cw)
	}()

	for {
		batch, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			switch {
			case r.Context().Err() != nil:
				s.m.readsCancelled.Add(1)
				ro.status = statusClientGone
			case !cw.committed:
				cw.abort()
				s.m.readErrors.Add(1)
				ro.status = statusFor(err)
				httpError(w, err)
			default:
				s.m.readErrors.Add(1)
				ro.status = statusFor(err)
			}
			s.noteQueryStats(st)
			return
		}
		for _, m := range batch.Matches {
			if err := cw.writeMatch(uint32(m.Index), m.Frame.Data); err != nil {
				s.m.readsCancelled.Add(1)
				ro.status = statusClientGone
				s.noteQueryStats(st)
				return
			}
		}
	}
	if err := cw.finish(); err != nil { // clean-EOF terminator
		s.m.readsCancelled.Add(1)
		ro.status = statusClientGone
		s.noteQueryStats(st)
		return
	}
	s.m.queriesCompleted.Add(1)
	s.noteQueryStats(st)
}

// noteQueryStats folds one predicate read's QueryStats into the server
// counters (planning counters are valid even on error paths).
func (s *Server) noteQueryStats(st *vss.QueryStream) {
	qs := st.Stats()
	s.m.queryGOPsConsidered.Add(int64(qs.GOPsConsidered))
	s.m.queryGOPsSkipped.Add(int64(qs.GOPsSkipped))
	s.m.queryGOPsDecoded.Add(int64(qs.GOPsDecoded))
	s.m.queryFramesScanned.Add(int64(qs.FramesScanned))
	s.m.queryFramesMatched.Add(int64(qs.FramesMatched))
	s.m.queryAnalysisReused.Add(int64(qs.AnalysisReused))
	s.m.gopsDecoded.Add(int64(qs.GOPsDecoded))
	s.m.bytesRead.Add(qs.BytesRead)
}

// replayCached serves a hot response from the LRU without touching the
// store. It rides the same coalescing chunkWriter as live reads — the
// hot path benefits most, since nothing throttles it but the wire — and
// the same trace, so cache hits show up in /debug/traces as
// flush-dominated requests with no plan/fetch/decode stages.
func (s *Server) replayCached(w http.ResponseWriter, e *cacheEntry, arrived time.Time, tr *obs.Trace, ro *readObs) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-VSS-Width", strconv.Itoa(e.width))
	h.Set("X-VSS-Height", strconv.Itoa(e.height))
	h.Set("X-VSS-FPS", strconv.Itoa(e.fps))
	h.Set("X-VSS-Codec", e.codec)
	h.Set("X-VSS-Cache", "hit")
	flusher, _ := w.(http.Flusher)
	cw := s.bufs.get()
	cw.reset(w, flusher, func() {
		ro.ttfb = time.Since(arrived)
		s.m.ttfb.Observe(ro.ttfb)
	})
	cw.instrument(s.pipe, tr)
	defer func() {
		ro.bytes = cw.bytesOut
		s.m.bytesSent.Add(cw.bytesOut)
		s.m.flushes.Add(cw.flushes)
		s.m.flushCoalesced.Add(cw.coalesced)
		s.bufs.put(cw)
	}()
	for _, g := range e.gops {
		if err := cw.writeGOP(g); err != nil {
			s.m.readsCancelled.Add(1)
			ro.status = statusClientGone
			return
		}
	}
	if err := cw.finish(); err != nil {
		s.m.readsCancelled.Add(1)
		ro.status = statusClientGone
		return
	}
	s.m.readsCompleted.Add(1)
}

// noteReadStats folds a finished (or abandoned) stream's ReadStats into
// the aggregate metrics.
func (s *Server) noteReadStats(st *vss.ReadStream) {
	stats := st.Stats()
	s.m.gopsDecoded.Add(int64(stats.GOPsDecoded))
	s.m.bytesRead.Add(stats.BytesRead)
}

// promOpts maps the snapshot's dynamic-key maps and object arrays onto
// Prometheus labels: per-video rows become vss_videos_*{video="..."},
// cluster node-health rows vss_cluster_node_health_*{node="addr"}, and
// replication shard-health rows use the shard root as the label value.
var promOpts = obs.PromOpts{
	Labels: map[string]string{
		"videos":                   "video",
		"cluster_node_health":      "node",
		"replication_shard_health": "shard",
	},
	NameFields: []string{"addr", "root"},
}

// wantsProm reports whether the client asked for Prometheus text
// exposition: ?format=prometheus, or an Accept header naming it.
func wantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "prometheus")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metricsSnapshot()
	if wantsProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, "vss", snap, promOpts)
		return
	}
	writeJSON(w, snap)
}

// TraceDump is the JSON document served by /debug/traces.
type TraceDump struct {
	Capacity int                 `json:"capacity"`
	Traces   []obs.TraceSnapshot `json:"traces"`
}

// handleTraces serves the slow-trace ring: the N slowest recent
// requests, slowest first, each with its full span and stage breakdown.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.traces.Snapshot()
	if traces == nil {
		traces = []obs.TraceSnapshot{} // an empty ring serves [], not null
	}
	writeJSON(w, TraceDump{Capacity: s.traces.Cap(), Traces: traces})
}

// metricsSnapshot assembles the full point-in-time snapshot served by
// /metrics in both formats.
func (s *Server) metricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Reads: ReadMetrics{
			Started:     s.m.readsStarted.Load(),
			Completed:   s.m.readsCompleted.Load(),
			Cancelled:   s.m.readsCancelled.Load(),
			Errors:      s.m.readErrors.Load(),
			InFlight:    s.adm.inFlight(),
			GOPsDecoded: s.m.gopsDecoded.Load(),
			BytesRead:   s.m.bytesRead.Load(),
			BytesSent:   s.m.bytesSent.Load(),
		},
		Admission: AdmissionMetrics{
			MaxInFlight:  s.cfg.MaxInFlightReads,
			MaxQueued:    s.cfg.MaxQueuedReads,
			MaxPerClient: s.cfg.MaxReadsPerClient,
			QueueDepth:   s.adm.queueDepth(),
			Rejected:     s.m.admissionRejected.Load(),
			Aborted:      s.m.admissionAborted.Load(),
		},
		Writes: WriteMetrics{
			Writes:      s.m.writes.Load(),
			GOPsWritten: s.m.gopsWritten.Load(),
		},
		Predicate: PredicateMetrics{
			Queries:        s.m.queriesStarted.Load(),
			Completed:      s.m.queriesCompleted.Load(),
			GOPsConsidered: s.m.queryGOPsConsidered.Load(),
			GOPsSkipped:    s.m.queryGOPsSkipped.Load(),
			GOPsDecoded:    s.m.queryGOPsDecoded.Load(),
			FramesScanned:  s.m.queryFramesScanned.Load(),
			FramesMatched:  s.m.queryFramesMatched.Load(),
			AnalysisReused: s.m.queryAnalysisReused.Load(),
		},
		Pipeline:   s.pipe.Snapshot(),
		Videos:     make(map[string]VideoMetrics),
		Storage:    s.sys.BackendStats(),
		Background: s.sys.BackgroundStats(),
	}
	// A routed store reports the cluster section; the generic replication
	// section it also implements (nodes relabeled as shards) would repeat
	// the same counters, so it is suppressed in favor of the richer view.
	if cl, ok := s.sys.ClusterStats(); ok {
		snap.Cluster = &cl
	} else if rep, ok := s.sys.ReplicationStats(); ok {
		snap.Replication = &rep
	}
	hits, misses := s.m.cacheHits.Load(), s.m.cacheMisses.Load()
	entries, bytes, max := s.cache.stats()
	snap.Cache = CacheMetrics{Hits: hits, Misses: misses, Entries: entries, Bytes: bytes, MaxBytes: max}
	if hits+misses > 0 {
		snap.Cache.HitRate = float64(hits) / float64(hits+misses)
	}
	snap.Response = ResponseMetrics{
		BytesWritten:    s.m.bytesSent.Load(),
		Flushes:         s.m.flushes.Load(),
		CoalescedChunks: s.m.flushCoalesced.Load(),
		PoolHits:        s.bufs.hits.Load(),
		PoolMisses:      s.bufs.misses.Load(),
		TTFBP50Millis:   s.m.ttfb.QuantileMillis(0.50),
		TTFBP99Millis:   s.m.ttfb.QuantileMillis(0.99),
	}
	if t := snap.Response.PoolHits + snap.Response.PoolMisses; t > 0 {
		snap.Response.PoolHitRate = float64(snap.Response.PoolHits) / float64(t)
	}
	if snap.Predicate.GOPsConsidered > 0 {
		snap.Predicate.SkipRate = float64(snap.Predicate.GOPsSkipped) / float64(snap.Predicate.GOPsConsidered)
	}
	if snap.Predicate.FramesScanned > 0 {
		snap.Predicate.Selectivity = float64(snap.Predicate.FramesMatched) / float64(snap.Predicate.FramesScanned)
	}
	for _, name := range s.sys.Videos() {
		total, err := s.sys.TotalBytes(name)
		if err != nil {
			continue // deleted while we iterated
		}
		snap.Videos[name] = VideoMetrics{Bytes: total, DeferredLevel: s.sys.DeferredLevel(name)}
	}
	return snap
}

func (s *Server) handleMaintain(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.Maintain(); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// writeChunk writes one framed chunk: 4-byte big-endian length + payload.
// A nil payload writes the zero-length clean-EOF terminator.
func writeChunk(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// maxChunkBytes bounds a single framed chunk. Chunk lengths come off the
// wire, so they must be validated BEFORE allocation — a 4-byte request
// claiming a 4GiB chunk must cost nothing, not an OOM.
const maxChunkBytes = 1 << 28 // 256MiB; far beyond any real GOP or batch

// readChunks reads framed chunks until EOF or a zero-length terminator.
func readChunks(r io.Reader) ([][]byte, error) {
	var out [][]byte
	var hdr [4]byte
	for {
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 {
			return out, nil
		}
		if n > maxChunkBytes {
			return nil, fmt.Errorf("chunk length %d exceeds limit %d", n, maxChunkBytes)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("truncated chunk: %w", err)
		}
		out = append(out, buf)
	}
}
