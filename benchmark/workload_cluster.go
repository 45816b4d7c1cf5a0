package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/vss"
)

// clusterMixed puts writes beside reads on one catalog and one fleet: a
// router.Open cluster of three in-process vssd nodes (mem backends, loopback
// TCP, two replicas) behind a front server.New, all measured traffic through
// server.Client.
//
// Lane 0 is an open-loop camera mux: every livePeriodMs one of four live
// videos gets its next pre-encoded GOP through WriteGOPs, then its newest
// second is tail-read back. The other lanes are closed-loop analytics
// clients issuing predicate queries over two pre-ingested burst-structured
// archive videos. It is the only workload where router, the wire storage
// plane and the predicate planner do most of the work, and where a gain for
// queries that taxes ingest or tail latency shows in the same run.
//
// Client.Maintain runs once, after the measured phase of a traced round,
// and is reported as core.maintain_ms_p50. A pass backfills the summary of every GOP that came
// in through WriteGOPs while holding that video's lock — about half a second
// at the seed commit — so a pass inside a four-second phase would decide the
// live path's p95 by where it happened to land.
type clusterMixed struct {
	cfg      runConfig
	archive  [2][]*frame.Frame
	liveGOPs [][]byte
	queries  []archQuery
	warm     []archQuery
	hash     scheduleHasher

	infos [2][]vss.FrameInfo // full-scan + AnalyzeFrames ground truth, computed once per run
}

const (
	clusterNodes    = 3
	clusterReplicas = 2
	liveVideos      = 4
	scanWindow      = 4 // seconds scanned by the unprunable class
)

// queryClass is one of the three seeded query classes. A class is tied to
// the archive video built for its selectivity.
type queryClass struct {
	name     string
	pred     string
	video    int
	blockLen int // seconds per query interval
	active   int // active seconds per block of that video
	weight   int // share of the schedule, in tenths
}

var queryClasses = []queryClass{
	{name: "sel10", pred: "count >= 1", video: 0, blockLen: 10, active: 1, weight: 4},
	{name: "sel25", pred: "count >= 1 and color ~ 220,30,30 < 60", video: 1, blockLen: 8, active: 2, weight: 3},
	{name: "scan", pred: "motion >= 0", video: -1, blockLen: scanWindow, weight: 3},
}

type archQuery struct {
	class  int
	video  int
	t0, t1 int // seconds
}

func archName(i int) string { return fmt.Sprintf("arch-%d", i) }
func liveName(i int) string { return fmt.Sprintf("live-%d", i) }

func (w *clusterMixed) name() string         { return "cluster_mixed" }
func (w *clusterMixed) scheduleHash() string { return w.hash.String() }
func (w *clusterMixed) probeFrames() []*frame.Frame {
	return w.archive[0][:w.cfg.sz.probeGOPs*gopFrames]
}
func (w *clusterMixed) close() {}

func (w *clusterMixed) prepare(cfg runConfig) error {
	w.cfg = cfg
	content := newRNG(cfg.seed, w.name(), streamContent)
	for i := range w.archive {
		c := queryClasses[i]
		active := activeSeconds(content, cfg.sz.archSeconds, c.blockLen, c.active)
		w.hash.add("archive", i, fmt.Sprint(sortedKeys(active)))
		w.archive[i] = burstClip(cfg.sz.archSeconds, active)
	}
	phase := content.Intn(4096)
	w.hash.add("live", phase)
	gops, err := encodeGOPs(roadClip(4000, phase, cfg.sz.liveClipGOPs*gopFrames))
	if err != nil {
		return err
	}
	w.liveGOPs = gops

	draw := func(stream, n int) []archQuery {
		rng := newRNG(cfg.seed, w.name(), stream)
		out := make([]archQuery, n)
		// Classes come in blocks of ten holding exactly each class's weight,
		// shuffled by the seed: any stretch of the schedule has the same mix,
		// so how far a run gets does not change what it measured.
		var block []int
		for i := range out {
			if len(block) == 0 {
				for ci, c := range queryClasses {
					for k := 0; k < c.weight; k++ {
						block = append(block, ci)
					}
				}
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			ci := block[0]
			block = block[1:]
			c := queryClasses[ci]
			q := archQuery{class: ci, video: c.video}
			if c.video < 0 { // scan: any whole-second window of either video
				q.video = rng.Intn(len(w.archive))
				q.t0 = rng.Intn(cfg.sz.archSeconds - c.blockLen + 1)
			} else { // a whole block, so every query of the class does the same work
				q.t0 = c.blockLen * rng.Intn(cfg.sz.archSeconds/c.blockLen)
			}
			q.t1 = q.t0 + c.blockLen
			out[i] = q
		}
		return out
	}
	w.queries, w.warm = draw(streamSchedule, 4096), draw(streamWarmup, 8)
	for _, q := range w.queries {
		w.hash.add(q)
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// fleet is one round's deployment.
type fleet struct {
	nodeSys   []*vss.System
	nodeWraps []*tracedBackend
	cluster   *router.Cluster
	routeWrap *tracedBackend
	front     *vss.System
	frontURL  string
	stop      []func()
}

func (f *fleet) close() {
	for i := len(f.stop) - 1; i >= 0; i-- {
		f.stop[i]()
	}
}

// serve puts a vssd over sys on a loopback listener, to be stopped with the
// fleet, and returns its URL.
func (f *fleet) serve(sys *vss.System) (string, error) {
	url, stop, err := serveLoopback(sys, server.Config{})
	if err == nil {
		f.stop = append(f.stop, stop)
	}
	return url, err
}

// startFleet boots the nodes, bulk-loads the archive through a front store
// at full width, then reopens the front store as it is served: with one CPU
// worker fewer than the box has cores. Predicate reads decode on that pool,
// and a pool as wide as the machine leaves the live path waiting a scheduler
// quantum at every goroutine hand-off — its latency then measures the Go
// scheduler, at 12% spread between runs, instead of the write path.
func startFleet(dir string, load func(front *vss.System) error) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < clusterNodes; i++ {
		wrap := newTracedBackend(vss.NewMemBackend(), layerStorage, i)
		sys, err := vss.OpenWith(filepath.Join(dir, fmt.Sprintf("node-%d", i)), vss.Options{GOPFrames: gopFrames}, wrap)
		if err != nil {
			f.close()
			return nil, err
		}
		f.stop = append(f.stop, func() { sys.Close() })
		addr, err := f.serve(sys)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodeSys, f.nodeWraps, addrs = append(f.nodeSys, sys), append(f.nodeWraps, wrap), append(addrs, addr)
	}
	cluster, err := router.Open(addrs, clusterReplicas, storage.RemoteOptions{Attempts: 2, Backoff: 2 * time.Millisecond})
	if err != nil {
		f.close()
		return nil, err
	}
	f.cluster, f.routeWrap = cluster, newTracedBackend(cluster, layerRouter, 0)
	frontDir := filepath.Join(dir, "front")
	loader, err := vss.OpenWith(frontDir, vss.Options{GOPFrames: gopFrames}, f.routeWrap)
	if err == nil {
		err = load(loader)
		if cerr := loader.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		f.close()
		return nil, err
	}
	workers := max(runtime.GOMAXPROCS(0)-1, 1)
	f.front, err = vss.OpenWith(frontDir, vss.Options{GOPFrames: gopFrames, Workers: workers}, f.routeWrap)
	if err != nil {
		f.close()
		return nil, err
	}
	f.stop = append(f.stop, func() { f.front.Close() })
	if f.frontURL, err = f.serve(f.front); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) attach(tr *tracer) {
	f.routeWrap.attach(tr)
	for _, w := range f.nodeWraps {
		w.attach(tr)
	}
}

// nodeStats sums the nodes' own backend counters.
func (f *fleet) nodeStats() storage.BackendStats {
	var t storage.BackendStats
	for _, sys := range f.nodeSys {
		s := sys.BackendStats()
		t.Reads += s.Reads
		t.Writes += s.Writes
		t.BytesRead += s.BytesRead
		t.BytesWritten += s.BytesWritten
		t.ReadNanos += s.ReadNanos
		t.WriteNanos += s.WriteNanos
		t.Deletes += s.Deletes
		t.Errors += s.Errors
	}
	return t
}

type queryOut struct {
	q       int   // index into the schedule
	indexes []int // matched source frame indexes
}

func (w *clusterMixed) round(rc *roundCtx) (*roundResult, error) {
	cfg := w.cfg
	analysts := max(cfg.clients-1, 1)
	res := newRoundResult(1+analysts, "query", "live")
	res.overHTTP = true

	setupStart := time.Now()
	// Archive videos go in through the front store's own ingest path, so
	// their GOPs are summarised at ingest and replicated over the wire.
	f, err := startFleet(rc.dir, func(front *vss.System) error {
		for i, frames := range w.archive {
			if err := front.Create(archName(i), -1); err != nil {
				return err
			}
			if err := front.Write(archName(i), vss.WriteSpec{FPS: fps, Codec: vss.H264, Quality: origQuality}, frames); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	clients, closeClients := newClients(f.frontURL, 1+analysts)
	defer closeClients()
	ctx := context.Background()
	written := make([]int, liveVideos) // GOPs written per live video
	for v := 0; v < liveVideos; v++ {
		if err := clients[0].Create(ctx, liveName(v), -1); err != nil {
			return nil, err
		}
		// One untimed GOP each establishes the video's original view.
		if err := clients[0].WriteGOPs(ctx, liveName(v), fps, [][]byte{w.liveGOP(v, 0)}); err != nil {
			return nil, err
		}
		written[v] = 1
	}
	for i, q := range w.warm {
		c := queryClasses[q.class]
		if _, _, err := clients[1+i%analysts].Query(ctx, archName(q.video), c.pred, float64(q.t0), float64(q.t1)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	res.setupS = time.Since(setupStart).Seconds()

	period := time.Duration(cfg.sz.livePeriodMs) * time.Millisecond
	dur := rc.dur()
	var due []time.Duration
	for t := time.Duration(0); t < dur; t += period {
		due = append(due, t)
	}

	f.attach(rc.tr)
	m0, err := clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	nodes0, proc0 := f.nodeStats(), readProc()
	nodeStages0 := make([]stageDelta, clusterNodes)
	for i, sys := range f.nodeSys {
		nodeStages0[i] = sys.Store().Pipeline().Snapshot()
	}

	var liveLanes, queryLanes []*laneRec
	var liveWall, queryWall time.Duration
	var tailBytes int64
	var mu sync.Mutex
	var outs []queryOut
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		liveLanes, liveWall = openLoop(rc.tr, 0, 1, due, dur, func(l *laneRec, op int, at time.Time) {
			v := op % liveVideos
			name, n := liveName(v), written[v]
			gop := w.liveGOP(v, n)
			l.attempts += 2
			if _, err := l.call("WriteGOPs", func(ctx context.Context) error {
				return clients[0].WriteGOPs(ctx, name, fps, [][]byte{gop})
			}); err != nil {
				l.failf("live write %s gop %d: %v", name, n, err)
				return
			}
			l.add("commit", time.Since(at))
			written[v]++
			// Tail-read the second just written, as a viewer following the
			// stream would: it must be the GOP just sent, byte for byte.
			var chunks [][]byte
			d, err := l.call("StreamingRead", func(ctx context.Context) (err error) {
				_, chunks, err = clients[0].ReadAll(ctx, name, fmt.Sprintf("start=%d&end=%d&codec=h264&quality=%d", n, n+1, origQuality))
				return err
			})
			if err != nil {
				l.failf("tail read %s second %d: %v", name, n, err)
				return
			}
			l.add("read", d)
			l.add("live", time.Since(at))
			if len(chunks) != 1 || !bytes.Equal(chunks[0], gop) {
				l.failf("tail read %s second %d: %d chunks, not the GOP just written", name, n, len(chunks))
			}
			tailBytes += int64(len(gop))
		})
	}()
	go func() {
		defer wg.Done()
		queryLanes, queryWall = closedLoop(rc.tr, 1, analysts, dur, func(l *laneRec, i int) {
			q := w.queries[i%len(w.queries)]
			c := queryClasses[q.class]
			l.attempts++
			var matches []server.QueryMatch
			d, err := l.call("Query", func(ctx context.Context) (err error) {
				_, matches, err = clients[l.id].Query(ctx, archName(q.video), c.pred, float64(q.t0), float64(q.t1))
				return err
			})
			if err != nil {
				l.failf("query %d %s %+v: %v", i, c.name, q, err)
				return
			}
			l.add("query", d)
			l.add("query."+c.name, d)
			l.frames += int64((q.t1 - q.t0) * fps)
			l.count("matched", float64(len(matches)))
			out := queryOut{q: i % len(w.queries), indexes: make([]int, len(matches))}
			for j, m := range matches {
				out.indexes[j] = m.Index
			}
			mu.Lock()
			outs = append(outs, out)
			mu.Unlock()
		})
	}()
	wg.Wait()
	res.wallS = max(liveWall, queryWall).Seconds()
	res.merge(append(liveLanes, queryLanes...))
	res.proc = readProc().since(proc0)
	m1, err := clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	nodes := backendSince(f.nodeStats(), nodes0)
	res.stages = stagesSince(m1.Pipeline, m0.Pipeline)
	for i, sys := range f.nodeSys {
		for k, v := range stagesSince(sys.Store().Pipeline().Snapshot(), nodeStages0[i]) {
			s := res.stages[k]
			s.Count, s.TotalMillis = s.Count+v.Count, s.TotalMillis+v.TotalMillis
			res.stages[k] = s
		}
	}
	rd, wr := w.nodeSamples(f)
	f.attach(nil)
	if rc.tr != nil { // two seconds a pass: only where its time is reported
		mstart := time.Now()
		if err := clients[0].Maintain(ctx); err != nil {
			res.fail("maintain: %v", err)
		}
		res.samples["maintain"] = []float64{float64(time.Since(mstart)) / 1e6}
	}

	laneMs := res.wallS * 1e3 * float64(res.lanes)
	front := backendSince(m1.Storage, m0.Storage)
	stageLayer(res.layer, res.stages, laneMs)
	// storage.* are the front store's view of its backend — the cluster —
	// except the op latencies, which are the nodes' mem backends.
	storageLayer(res.layer, front, nil, tailBytes, laneMs)
	res.layer["storage.op_ms_p50.read"] = percentile(rd, 0.5)
	res.layer["storage.op_ms_p50.write"] = percentile(wr, 0.5)
	serverLayer(res.layer, m1, m0, 0)
	p1, p0 := m1.Predicate, m0.Predicate
	considered := float64(p1.GOPsConsidered - p0.GOPsConsidered)
	res.layer["core.query_gops_considered"] = considered
	res.layer["core.query_gops_decoded"] = float64(p1.GOPsDecoded - p0.GOPsDecoded)
	res.layer["core.query_skip_frac"] = ratio(float64(p1.GOPsSkipped-p0.GOPsSkipped), considered)
	res.layer["core.query_selectivity"] = ratio(float64(p1.FramesMatched-p0.FramesMatched), float64(p1.FramesScanned-p0.FramesScanned))
	for _, c := range queryClasses {
		res.layer["core.query_ms_p50."+c.name] = percentile(res.samples["query."+c.name], 0.5)
	}
	res.layer["router.node_reads"] = float64(nodes.Reads)
	res.layer["router.node_writes"] = float64(nodes.Writes)
	res.layer["router.node_mb_out"] = float64(nodes.BytesRead) / (1 << 20)
	res.layer["router.node_mb_in"] = float64(nodes.BytesWritten) / (1 << 20)
	// Bytes the nodes shipped for queries (everything they sent, less the
	// tail reads) per matched frame: the pushdown gate.
	res.layer["router.node_kb_per_match"] = ratio(float64(nodes.BytesRead-tailBytes)/1024, res.counts["matched"])
	res.layer["router.write_fanout"] = ratio(float64(nodes.Writes), float64(front.Writes))
	if cs, ok := f.front.ClusterStats(); ok {
		res.layer["router.failovers"] = float64(cs.Failovers)
		res.layer["router.journal_depth_end"] = float64(cs.JournalDepth)
	}
	if rc.tr != nil {
		res.layer["router.gop_rtt_ms_p50"] = w.probeRTT(f)
	}

	res.phys = largestPhys(f.front, archName(0), archName(1), liveName(0))

	w.verify(f, outs, written, res)
	res.assert(res.backlogEnd == 0, "%d live GOPs were still waiting to be sent when the phase ended", res.backlogEnd)
	return res, nil
}

// liveGOP is the n-th GOP of live video v: the pre-encoded clip, looped,
// each video starting at its own offset.
func (w *clusterMixed) liveGOP(v, n int) []byte {
	return w.liveGOPs[(2*v+n)%len(w.liveGOPs)]
}

func (w *clusterMixed) nodeSamples(f *fleet) (rd, wr []float64) {
	for _, nw := range f.nodeWraps {
		r, x := nw.samples()
		rd, wr = append(rd, r...), append(wr, x...)
	}
	return rd, wr
}

// probeRTT times Cluster.ReadGOPContext on up to 64 stored GOPs: one routed
// read over the wire, no decode.
func (w *clusterMixed) probeRTT(f *fleet) float64 {
	var addrs []storage.GOPAddr
	_ = f.cluster.Walk(func(video, physDir string, seq int, _ int64) error {
		if video != storage.CatalogSnapshotVideo {
			addrs = append(addrs, storage.GOPAddr{Video: video, PhysDir: physDir, Seq: seq})
		}
		return nil
	})
	sort.Slice(addrs, func(i, j int) bool { return fmt.Sprint(addrs[i]) < fmt.Sprint(addrs[j]) })
	rng := newRNG(w.cfg.seed, w.name(), streamVerify)
	var ms []float64
	for i := 0; i < 64 && len(addrs) > 0; i++ {
		a := addrs[rng.Intn(len(addrs))]
		start := time.Now()
		if _, err := f.cluster.ReadGOPContext(context.Background(), a.Video, a.PhysDir, a.Seq); err == nil {
			ms = append(ms, float64(time.Since(start))/1e6)
		}
	}
	return percentile(ms, 0.5)
}

// verify checks, after timing: every query's matched frame indexes against a
// full scan filtered with AnalyzeFrames; that the planner pruned what the
// inputs let it prune; that every GOP sits on exactly two nodes; and it
// computes the stored ratio over all nodes.
func (w *clusterMixed) verify(f *fleet, outs []queryOut, written []int, res *roundResult) {
	for i := range w.archive {
		if w.infos[i] != nil {
			continue
		}
		full, err := f.front.Read(archName(i), vss.ReadSpec{P: vss.Physical{Format: vss.RGB}})
		if err != nil {
			res.fail("ground truth: full read of %s: %v", archName(i), err)
			return
		}
		for g := 0; g < len(full.Frames); g += gopFrames {
			w.infos[i] = append(w.infos[i], vss.AnalyzeFrames(full.Frames[g:min(g+gopFrames, len(full.Frames))])...)
		}
	}
	preds := make([]vss.Predicate, len(queryClasses))
	for i, c := range queryClasses {
		p, err := vss.ParsePredicate(c.pred)
		if err != nil {
			res.fail("predicate %q: %v", c.pred, err)
			return
		}
		preds[i] = p
	}
	for _, o := range outs {
		q := w.queries[o.q]
		lo, hi := vss.FrameWindow(fps, float64(q.t0), float64(q.t1))
		var want []int
		for i := lo; i < hi && i < len(w.infos[q.video]); i++ {
			if preds[q.class].Match(w.infos[q.video][i]) {
				want = append(want, i)
			}
		}
		if fmt.Sprint(o.indexes) != fmt.Sprint(want) {
			res.fail("query %s %+v: matched %d frames, a full scan matches %d", queryClasses[q.class].name, q, len(o.indexes), len(want))
		}
	}
	// One query per class through the library gives that class's own
	// planner counters, which the server only publishes summed.
	for ci, c := range queryClasses {
		v := max(c.video, 0)
		out, err := f.front.ReadWhere(context.Background(), archName(v), preds[ci], 0, float64(c.blockLen))
		if err != nil {
			res.fail("planner check %s: %v", c.name, err)
			continue
		}
		skip := ratio(float64(out.Stats.GOPsSkipped), float64(out.Stats.GOPsConsidered))
		res.layer["core.query_nosummary"] += float64(out.Stats.NoSummary)
		switch c.name {
		case "sel10":
			res.assert(skip >= 0.85, "sel10 skipped %.2f of its GOPs, want >= 0.85", skip)
		case "scan":
			res.assert(skip == 0, "scan skipped %.2f of its GOPs, want 0: it is the planner-bypass control", skip)
		}
	}

	copies := map[storage.GOPAddr]int{}
	var stored int64
	for _, nw := range f.nodeWraps {
		err := nw.inner.Walk(func(video, physDir string, seq int, size int64) error {
			if video != storage.CatalogSnapshotVideo {
				copies[storage.GOPAddr{Video: video, PhysDir: physDir, Seq: seq}]++
				stored += size
			}
			return nil
		})
		if err != nil {
			res.fail("walk node: %v", err)
		}
	}
	for a, n := range copies {
		if n != clusterReplicas {
			res.fail("GOP %v is on %d nodes, want %d", a, n, clusterReplicas)
		}
	}
	frames := 0
	for _, a := range w.archive {
		frames += len(a)
	}
	for _, n := range written {
		frames += n * gopFrames
	}
	res.storedRatio = ratio(float64(stored), float64(frames*rawFrameBytes))
}
