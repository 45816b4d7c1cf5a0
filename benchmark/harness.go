package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/vss"
)

// sizes are the dataset sizes of the four workloads. full is what
// BENCHMARK.json measures; smoke is the same code at a few percent of the
// size, for the package's tests.
type sizes struct {
	clipFrames  int // ingest_fanin: frames in each camera's looped clip
	segmentGOPs int // ingest_fanin: GOPs appended per op, then one Flush

	libSeconds     int // read_spill: length of each of the two library videos
	libWarmReads   int // read_spill: most reads the warm-up may issue to fill the budget
	verifyEvery    int // read_spill: 1 in this many reads is checked against a reference store
	verifyMaxReads int

	hotSeconds int     // serve_hot: length of the served video
	hotRate    float64 // serve_hot: open-loop arrivals per second

	archSeconds  int // cluster_mixed: length of each of the two archive videos
	liveClipGOPs int // cluster_mixed: pre-encoded GOPs in the looped live clip
	livePeriodMs int // cluster_mixed: one live GOP is due every this many ms

	probeGOPs int // GOPs of source frames the leaf probes of a traced run work on
}

var fullSizes = sizes{
	clipFrames: 240, segmentGOPs: 2,
	libSeconds: 16, libWarmReads: 512, verifyEvery: 16, verifyMaxReads: 6,
	hotSeconds: 24, hotRate: 600,
	archSeconds: 40, liveClipGOPs: 8, livePeriodMs: 50,
	probeGOPs: 4,
}

var smokeSizes = sizes{
	clipFrames: 16, segmentGOPs: 1,
	libSeconds: 6, libWarmReads: 8, verifyEvery: 4, verifyMaxReads: 1,
	hotSeconds: 4, hotRate: 100,
	archSeconds: 10, liveClipGOPs: 2, livePeriodMs: 100,
	probeGOPs: 1,
}

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	seed    int64
	seconds float64 // total measured time, split over the rounds
	rounds  int     // set-ups (and measured phases) of an untraced run
	trace   bool
	sz      sizes
	workdir string // scratch root; every round gets a fresh directory under it
	clients int    // C = min(nproc, 4): generator goroutines / connections
}

func defaultClients() int { return min(runtime.GOMAXPROCS(0), 4) }

// A workload builds its inputs once, then runs rounds. Each round is a fresh
// set-up (new store, pre-ingest, servers, warm-up), a measured phase of a
// fixed duration, and a verification of what the program returned.
type workload interface {
	name() string
	// prepare builds every input from cfg.seed. It is harness work and is
	// not part of setup_s.
	prepare(cfg runConfig) error
	round(rc *roundCtx) (*roundResult, error)
	// probeFrames returns source frames of the workload's own data (whole
	// GOPs) for the leaf-layer probes of a traced run.
	probeFrames() []*frame.Frame
	scheduleHash() string
	// close releases what outlives the rounds (a reference store).
	close()
}

// roundCtx is what a workload gets for one round.
type roundCtx struct {
	dir     string
	idx     int     // which round of the run this is
	seconds float64 // measured seconds of this round
	tr      *tracer // nil on an untraced round
}

// roundResult is what one round measured. Latency samples are in
// milliseconds, keyed by what was timed ("commit", "read", "ttfb", ...);
// op and aux name the two sets that feed the end-to-end metrics.
type roundResult struct {
	setupS      float64
	wallS       float64
	lanes       int
	samples     map[string][]float64
	counts      map[string]float64 // sums the lanes kept: reads, GOPs decoded, ...
	op, aux     string
	frames      int64 // frames through the workload's primary path
	storedRatio float64
	attempted   int64
	failed      int64
	failures    []string           // first few, for the report
	lagMs       []float64          // open loops: how late each op was issued
	backlogEnd  int64              // open loops: ops due in the phase that started over backlogGrace after it
	layer       map[string]float64 // per-layer metrics from counters, spans and the wrapper
	proc        procDelta
	fpsName     string         // the issue's name for frames_per_s here: "ingest_fps", "read_fps" or ""
	stages      stageDelta     // pipeline-stage time over the measured phase, all stores summed
	overHTTP    bool           // ops go through server.Client, so op self time includes client and wire
	phys        *core.PhysMeta // largest physical-video record at the end, for the catalog probe
}

func (rc *roundCtx) dur() time.Duration { return time.Duration(rc.seconds * float64(time.Second)) }

func newRoundResult(lanes int, op, aux string) *roundResult {
	return &roundResult{lanes: lanes, op: op, aux: aux, samples: map[string][]float64{}, counts: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed or incorrect operation.
func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// assert fails the round when a workload is not stressing what it claims.
func (r *roundResult) assert(ok bool, format string, args ...any) {
	if !ok {
		r.fail("self-assertion: "+format, args...)
	}
}

// laneRec is one generator goroutine's private record; lanes are merged
// after the phase so the hot loop takes no lock.
type laneRec struct {
	id       int
	tr       *tracer
	sp       *liveSpan
	samples  map[string][]float64
	counts   map[string]float64
	frames   int64
	attempts int64
	fails    []string
	lagMs    []float64
	late     int64
}

func newLane(tr *tracer, id int) *laneRec {
	return &laneRec{id: id, tr: tr, samples: map[string][]float64{}, counts: map[string]float64{}, sp: tr.begin("lane", layerLane, id, 0, "")}
}

func (l *laneRec) add(key string, d time.Duration) {
	l.samples[key] = append(l.samples[key], float64(d)/1e6)
}

func (l *laneRec) count(key string, n float64) { l.counts[key] += n }

func (l *laneRec) failf(format string, args ...any) {
	l.fails = append(l.fails, fmt.Sprintf(format, args...))
}

// call runs one harness call into the program as an op span and returns how
// long it took. The context it passes carries the op's request id when the
// round is traced.
func (l *laneRec) call(name string, fn func(ctx context.Context) error) (time.Duration, error) {
	ctx, req := l.tr.opCtx(context.Background())
	sp := l.tr.begin(name, layerOp, l.id, l.sp.id(), req)
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	sp.end()
	return d, err
}

func (r *roundResult) merge(lanes []*laneRec) {
	for _, l := range lanes {
		for k, v := range l.samples {
			r.samples[k] = append(r.samples[k], v...)
		}
		for k, v := range l.counts {
			r.counts[k] += v
		}
		r.frames += l.frames
		r.attempted += l.attempts
		for _, f := range l.fails {
			r.fail("%s", f)
		}
		r.lagMs = append(r.lagMs, l.lagMs...)
		r.backlogEnd += l.late
	}
}

// closedLoop runs n lanes, numbered from base; each calls step until the
// deadline, one op after the other. step gets the index of the op in the
// shared schedule.
func closedLoop(tr *tracer, base, n int, dur time.Duration, step func(l *laneRec, op int)) ([]*laneRec, time.Duration) {
	lanes := make([]*laneRec, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := range lanes {
		lanes[i] = newLane(tr, base+i)
		wg.Add(1)
		go func(l *laneRec) {
			defer wg.Done()
			defer l.sp.end()
			for time.Now().Before(deadline) {
				step(l, int(next.Add(1)-1))
			}
		}(lanes[i])
	}
	wg.Wait()
	return lanes, time.Since(start)
}

// backlogGrace is how long after the end of an open-loop phase an op that was
// due inside it may still start without counting as backlog: the last
// arrivals are due microseconds before the end and legitimately start just
// after it, while a queue that grew during the phase is still draining long
// after.
const backlogGrace = 100 * time.Millisecond

// openLoop issues op i at start+due[i] on whichever of n lanes (numbered
// from base) is free, regardless of how the earlier ops fared. The op is told
// its due time so it measures from there; how late it started is the
// generator's lag.
func openLoop(tr *tracer, base, n int, due []time.Duration, dur time.Duration, issue func(l *laneRec, op int, due time.Time)) ([]*laneRec, time.Duration) {
	lanes := make([]*laneRec, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := range lanes {
		lanes[i] = newLane(tr, base+i)
		wg.Add(1)
		go func(l *laneRec) {
			defer wg.Done()
			defer l.sp.end()
			for {
				op := int(next.Add(1) - 1)
				if op >= len(due) {
					return
				}
				at := start.Add(due[op])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				l.lagMs = append(l.lagMs, float64(now.Sub(at))/1e6)
				if now.After(deadline.Add(backlogGrace)) {
					l.late++
				}
				issue(l, op, at)
			}
		}(lanes[i])
	}
	wg.Wait()
	return lanes, time.Since(start)
}

// procSnap / procDelta: what the process as a whole spent over a phase.
type procSnap struct {
	cpu     time.Duration
	alloc   uint64
	gcPause uint64
}

type procDelta struct {
	cpuS      float64
	allocMB   float64
	gcPauseMs float64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcPause: ms.PauseTotalNs,
	}
}

func (a procSnap) since(b procSnap) procDelta {
	return procDelta{
		cpuS:      (a.cpu - b.cpu).Seconds(),
		allocMB:   float64(a.alloc-b.alloc) / (1 << 20),
		gcPauseMs: float64(a.gcPause-b.gcPause) / 1e6,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stageDelta is the pipeline-stage time the program published over a phase.
type stageDelta map[string]obs.StageStats

func stagesSince(after, before map[string]obs.StageStats) stageDelta {
	out := stageDelta{}
	for k, a := range after {
		b := before[k]
		out[k] = obs.StageStats{Count: a.Count - b.Count, TotalMillis: a.TotalMillis - b.TotalMillis}
	}
	return out
}

func (d stageDelta) ms(keys ...string) float64 {
	t := 0.0
	for _, k := range keys {
		t += d[k].TotalMillis
	}
	return t
}

func backendSince(a, b storage.BackendStats) storage.BackendStats {
	return storage.BackendStats{
		Backend: a.Backend,
		Reads:   a.Reads - b.Reads, Writes: a.Writes - b.Writes,
		BytesRead: a.BytesRead - b.BytesRead, BytesWritten: a.BytesWritten - b.BytesWritten,
		ReadNanos: a.ReadNanos - b.ReadNanos, WriteNanos: a.WriteNanos - b.WriteNanos,
		Deletes: a.Deletes - b.Deletes, Links: a.Links - b.Links, Errors: a.Errors - b.Errors,
	}
}

// storageLayer fills the storage.* metrics every workload shares from the
// program's own backend counters (C) and the wrapper's samples (W).
// userBytes is the encoded user video written during the phase, the base of
// write amplification.
func storageLayer(layer map[string]float64, st storage.BackendStats, wrap *tracedBackend, userBytes int64, laneMs float64) {
	layer["storage.reads"] = float64(st.Reads)
	layer["storage.writes"] = float64(st.Writes)
	layer["storage.deletes"] = float64(st.Deletes)
	layer["storage.errors"] = float64(st.Errors)
	layer["storage.read_mb"] = float64(st.BytesRead) / (1 << 20)
	layer["storage.write_mb"] = float64(st.BytesWritten) / (1 << 20)
	layer["storage.read_busy_frac"] = ratio(float64(st.ReadNanos)/1e6, laneMs)
	layer["storage.write_busy_frac"] = ratio(float64(st.WriteNanos)/1e6, laneMs)
	layer["storage.write_amp"] = ratio(float64(st.BytesWritten), float64(userBytes))
	if wrap != nil {
		rd, wr := wrap.samples()
		layer["storage.op_ms_p50.read"] = percentile(rd, 0.5)
		layer["storage.op_ms_p50.write"] = percentile(wr, 0.5)
	}
}

// openLocal opens a store in dir on a localfs backend behind the harness's
// wrapper.
func openLocal(dir string, opts vss.Options) (*vss.System, *tracedBackend, error) {
	local, err := vss.NewLocalBackend(filepath.Join(dir, "data"))
	if err != nil {
		return nil, nil, err
	}
	backend := newTracedBackend(local, layerStorage, 0)
	sys, err := vss.OpenWith(dir, opts, backend)
	return sys, backend, err
}

// serveLoopback puts a vssd over sys on a loopback TCP listener. stop closes
// the server and waits for it to have stopped serving.
func serveLoopback(sys *vss.System, cfg server.Config) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: server.New(sys, cfg)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed on Close below
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}

// newClients returns n wire clients of base, each with one keep-alive
// connection of its own, and a function that closes those connections.
func newClients(base string, n int) ([]*server.Client, func()) {
	clients := make([]*server.Client, n)
	transports := make([]*http.Transport, n)
	for i := range clients {
		transports[i] = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		clients[i] = &server.Client{Base: base, HTTP: &http.Client{Transport: transports[i]}, Name: fmt.Sprintf("conn-%d", i)}
	}
	return clients, func() {
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}
}

// roundDir makes a fresh scratch directory for one round.
func roundDir(workdir, workload string, idx int) (string, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d-r%d", workload, os.Getpid(), idx))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// stageLayer fills the busy fractions the program's own per-stage pipeline
// histograms (C) give for codec, core and server: stage busy time over lane
// time. Stages run on worker pools, so a fraction can exceed what one lane
// could do alone; it never exceeds workers/lanes.
func stageLayer(layer map[string]float64, st stageDelta, laneMs float64) {
	layer["codec.encode_busy_frac"] = ratio(st.ms("encode"), laneMs)
	layer["codec.decode_busy_frac"] = ratio(st.ms("decode"), laneMs)
	layer["core.plan_busy_frac"] = ratio(st.ms("plan"), laneMs)
	layer["core.cache_admit_busy_frac"] = ratio(st.ms("cache_admit"), laneMs)
	layer["core.fetch_wait_busy_frac"] = ratio(st.ms("fetch"), laneMs)
	layer["server.admission_wait_busy_frac"] = ratio(st.ms("admission_wait"), laneMs)
	layer["server.flush_busy_frac"] = ratio(st.ms("flush"), laneMs)
}
