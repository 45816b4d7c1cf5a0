package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/vss"
)

// serveHot is the mirror image of read_spill: an open loop of streaming
// reads against an in-process vssd on a loopback TCP listener, where every
// response was put in the response cache during set-up. Admission, cache
// replay, chunk framing and adaptive flush are the whole cost; codec and
// core are bypassed. Latency is timed from each request's due time.
type serveHot struct {
	cfg    runConfig
	frames []*frame.Frame
	keys   []hotKey
	sched  []hotArrival // arrivals over the whole run; round i takes its slice
	warm   []int        // key indexes of the untimed warm-up
	hash   scheduleHasher
}

type hotKey struct {
	query string       // over the wire
	spec  vss.ReadSpec // the same read through the library, for verification
}

type hotArrival struct {
	at  float64 // seconds from the start of the run
	key int
}

const (
	hotVideo  = "hot"
	hotWindow = 2 // seconds per read
	// ttfbLimitMs is the serving latency limit: the run is incorrect when
	// the 95th percentile of due-time-to-first-chunk exceeds it.
	ttfbLimitMs = 20
)

func (w *serveHot) name() string                { return "serve_hot" }
func (w *serveHot) scheduleHash() string        { return w.hash.String() }
func (w *serveHot) probeFrames() []*frame.Frame { return w.frames[:w.cfg.sz.probeGOPs*gopFrames] }
func (w *serveHot) close()                      {}

func (w *serveHot) prepare(cfg runConfig) error {
	w.cfg = cfg
	phase := newRNG(cfg.seed, w.name(), streamContent).Intn(4096)
	w.hash.add("video", phase)
	w.frames = roadClip(3000, phase, cfg.sz.hotSeconds*fps)
	// Keys are codec-major, start ascending, so that a contiguous block of
	// them is a chain of overlapping windows: each transcodes one new GOP
	// and reuses the view the previous one admitted.
	for _, c := range []vss.Codec{vss.HEVC, vss.H264} {
		for s := 0; s+hotWindow <= cfg.sz.hotSeconds; s++ {
			var k hotKey
			k.spec.T = vss.Temporal{Start: float64(s), End: float64(s + hotWindow)}
			k.spec.P.Codec = c
			k.query = fmt.Sprintf("start=%d&end=%d&codec=%s", s, s+hotWindow, c)
			if c == vss.H264 { // the original's own quality: served as stored
				k.spec.P.Quality = origQuality
				k.query += fmt.Sprintf("&quality=%d", origQuality)
			}
			w.keys = append(w.keys, k)
		}
	}
	starts := len(w.keys) / 2
	pick := func(stream int) func() int {
		rng := newRNG(cfg.seed, w.name(), stream)
		z := newZipfStarts(rng, starts, 1000)
		return func() int { return z.next() + starts*rng.Intn(2) }
	}
	key := pick(streamSchedule)
	for _, at := range poissonArrivals(newRNG(cfg.seed, w.name(), streamArrivals), cfg.sz.hotRate, cfg.seconds) {
		a := hotArrival{at: at, key: key()}
		w.sched = append(w.sched, a)
		w.hash.add(a)
	}
	wkey := pick(streamWarmup) // untimed warm-up: 5% of one round's requests
	for i := 0; i < len(w.sched)/60+1; i++ {
		w.warm = append(w.warm, wkey())
	}
	return nil
}

// hotResponse is one drained response.
type hotResponse struct {
	first  time.Time
	frames int
	hit    bool
	body   []byte // chunk payloads, concatenated; kept only when asked
}

func fetchHot(ctx context.Context, c *server.Client, query string, keep bool) (hotResponse, error) {
	var r hotResponse
	hdr, next, stop, err := c.StreamingRead(ctx, hotVideo, query)
	if err != nil {
		return r, err
	}
	defer stop()
	r.hit = hdr.CacheHit
	for {
		chunk, err := next()
		if err == io.EOF {
			return r, nil
		}
		if err != nil {
			return r, err
		}
		if r.first.IsZero() {
			r.first = time.Now()
		}
		hd, err := codec.DecodeHeader(chunk)
		if err != nil {
			return r, fmt.Errorf("chunk is not a GOP: %w", err)
		}
		r.frames += hd.FrameCount
		if keep {
			r.body = append(r.body, chunk...)
		}
	}
}

func (w *serveHot) round(rc *roundCtx) (*roundResult, error) {
	cfg := w.cfg
	res := newRoundResult(cfg.clients, "read", "ttfb")
	res.overHTTP = true

	setupStart := time.Now()
	sys, backend, err := openLocal(rc.dir, vss.Options{GOPFrames: gopFrames})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.Create(hotVideo, 0); err != nil {
		return nil, err
	}
	if err := sys.Write(hotVideo, vss.WriteSpec{FPS: fps, Codec: vss.H264, Quality: origQuality}, w.frames); err != nil {
		return nil, err
	}
	url, stop, err := serveLoopback(sys, server.Config{CacheBytes: 64 << 20, MaxQueuedReads: 8192, MaxReadsPerClient: 64})
	if err != nil {
		return nil, err
	}
	defer stop()
	clients, closeClients := newClients(url, cfg.clients)
	defer closeClients()
	// Warm every response: each connection takes contiguous blocks of each
	// codec's keys. The first request for a key misses, is transcoded and
	// enters the response cache.
	var wg sync.WaitGroup
	warmErr := make([]error, cfg.clients)
	half := len(w.keys) / 2
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, base := range []int{0, half} {
				for k := base + c*half/cfg.clients; k < base+(c+1)*half/cfg.clients; k++ {
					if _, err := fetchHot(context.Background(), clients[c], w.keys[k].query, false); err != nil {
						warmErr[c] = fmt.Errorf("warm %s: %w", w.keys[k].query, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range warmErr {
		if err != nil {
			return nil, err
		}
	}
	for i, k := range w.warm {
		if _, err := fetchHot(context.Background(), clients[i%len(clients)], w.keys[k].query, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	res.setupS = time.Since(setupStart).Seconds()

	// This round's slice of the arrival schedule, rebased to its start.
	t0, t1 := rc.seconds*float64(rc.idx), rc.seconds*float64(rc.idx+1)
	var due []time.Duration
	var keys []int
	for _, a := range w.sched {
		if a.at >= t0 && a.at < t1 {
			due = append(due, time.Duration((a.at-t0)*float64(time.Second)))
			keys = append(keys, a.key)
		}
	}

	backend.attach(rc.tr)
	ctx := context.Background()
	m0, err := clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	proc0 := readProc()
	var mu sync.Mutex
	sampled := map[int][]byte{} // key -> response body
	lanes, wall := openLoop(rc.tr, 0, cfg.clients, due, rc.dur(), func(l *laneRec, op int, at time.Time) {
		key := keys[op]
		keep := op%64 == 0
		l.attempts++
		var r hotResponse
		_, err := l.call("StreamingRead", func(ctx context.Context) (err error) {
			r, err = fetchHot(ctx, clients[l.id], w.keys[key].query, keep)
			return err
		})
		end := time.Now()
		if err != nil {
			l.failf("read %d %s: %v", op, w.keys[key].query, err)
			return
		}
		l.add("ttfb", r.first.Sub(at))
		l.add("read", end.Sub(at))
		l.frames += int64(r.frames)
		if r.hit {
			l.count("hits", 1)
		}
		if r.frames != hotWindow*fps {
			l.failf("read %d %s: %d frames, want %d", op, w.keys[key].query, r.frames, hotWindow*fps)
		}
		if keep {
			mu.Lock()
			sampled[key] = r.body
			mu.Unlock()
		}
	})
	res.wallS = wall.Seconds()
	res.merge(lanes)
	res.proc = readProc().since(proc0)
	m1, err := clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	backend.attach(nil)

	laneMs := res.wallS * 1e3 * float64(cfg.clients)
	res.stages = stagesSince(m1.Pipeline, m0.Pipeline)
	stageLayer(res.layer, res.stages, laneMs)
	storageLayer(res.layer, backendSince(m1.Storage, m0.Storage), backend, 0, laneMs)
	serverLayer(res.layer, m1, m0, percentile(res.samples["ttfb"], 0.5))

	// Sampled responses must be byte-identical to what the library returns
	// for the same spec.
	for key, body := range sampled {
		out, err := sys.Read(hotVideo, w.keys[key].spec)
		if err != nil {
			res.fail("verify %s: library read: %v", w.keys[key].query, err)
			continue
		}
		if want := bytes.Join(out.GOPs, nil); !bytes.Equal(body, want) {
			res.fail("verify %s: response (%d bytes) differs from library Read (%d bytes)", w.keys[key].query, len(body), len(want))
		}
	}
	res.phys = largestPhys(sys, hotVideo)
	stored, _ := sys.TotalBytes(hotVideo)
	res.storedRatio = ratio(float64(stored), float64(len(w.frames)*rawFrameBytes))

	res.assert(res.layer["server.cache_hit_frac"] >= 0.99, "cache hit fraction %.3f, want >= 0.99", res.layer["server.cache_hit_frac"])
	res.assert(res.layer["codec.encode_busy_frac"] < 0.02, "encode busy %.3f of lane time, want < 0.02", res.layer["codec.encode_busy_frac"])
	res.assert(res.backlogEnd == 0, "%d requests were still waiting to be sent when the phase ended", res.backlogEnd)
	if p95 := percentile(res.samples["ttfb"], 0.95); p95 > ttfbLimitMs {
		res.fail("latency limit: ttfb p95 %.2f ms exceeds %d ms", p95, ttfbLimitMs)
	}
	return res, nil
}

// serverLayer fills the server.* metrics from two /metrics snapshots of the
// serving node. clientTTFB is the client-side median, for the overhead split.
func serverLayer(layer map[string]float64, after, before server.MetricsSnapshot, clientTTFB float64) {
	reads := float64((after.Reads.Completed - before.Reads.Completed) + (after.Predicate.Completed - before.Predicate.Completed))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	flushes := float64(after.Response.Flushes - before.Response.Flushes)
	coalesced := float64(after.Response.CoalescedChunks - before.Response.CoalescedChunks)
	poolHits := float64(after.Response.PoolHits - before.Response.PoolHits)
	poolMisses := float64(after.Response.PoolMisses - before.Response.PoolMisses)
	layer["server.cache_hit_frac"] = ratio(hits, hits+misses)
	layer["server.admission_rejected"] = float64(after.Admission.Rejected - before.Admission.Rejected)
	layer["server.flushes_per_read"] = ratio(flushes, reads)
	layer["server.coalesced_frac"] = ratio(coalesced, coalesced+flushes)
	layer["server.pool_hit_frac"] = ratio(poolHits, poolHits+poolMisses)
	layer["server.kb_sent_per_read"] = ratio(float64(after.Reads.BytesSent-before.Reads.BytesSent)/1024, reads)
	// The server's TTFB histogram is cumulative since it started, set-up
	// included; it is a power-of-two histogram, exact to within 2x.
	layer["server.ttfb_p50_ms"] = after.Response.TTFBP50Millis
	if clientTTFB > 0 {
		layer["server.client_overhead_ms_p50"] = clientTTFB - after.Response.TTFBP50Millis
	}
}
