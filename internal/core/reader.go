package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/lossless"
	"repro/internal/obs"
	"repro/internal/quality"
)

// This file implements the read path (Section 3) as a three-phase
// pipeline so concurrent reads of different videos — and the CPU work of
// a single read — run in parallel:
//
//	Phase A (video lock held): resolve the request, pick the minimal-cost
//	  plan, and snapshot the decode RECIPE of every stored GOP the plan
//	  touches (chasing duplicate/joint references through the held lock
//	  set), registering one fetch descriptor per stored GOP to read. The
//	  plan is cut into ordered output units: a passthrough stored GOP, or
//	  a GOPFrames-long run of frames to transcode.
//	Phase B (no locks): the one unit executor (stream.go) every read runs
//	  on. An IO-prefetch stage reads GOP bytes ahead of the decode workers
//	  (bounded look-ahead, 2*Workers); workers claim units in order,
//	  decode each stored GOP once for whichever unit needs it first, then
//	  convert and (for compressed output) re-encode the unit under one
//	  slot of the store's bounded worker pool; the consumer takes units in
//	  order, at most 2*Workers behind the workers.
//	Phase C (video lock re-acquired): cache admission, eviction, and
//	  deferred-compression pressure against the video's current state.
//
// A batch Read is a drain of that stream followed by phase C; ReadStream
// hands the units to its caller instead, and predicate reads (query.go)
// run the same executor with a per-GOP filter in place of convert.
//
// Deferring the byte reads out of phase A is what lets disk (or shard)
// IO overlap with compute. The price is a race: between phase A and the
// fetch, maintenance may evict, jointly compress, or lossless-recompress
// a planned GOP. The prefetch stage detects this per GOP (the file is
// gone, or its size no longer matches the metadata snapshot) and falls
// back to re-snapshotting that one GOP under the lock, where metadata is
// authoritative (an evicted GOP makes batch reads retry once, eagerly).
// Passthrough GOPs (stored bitstreams emitted as-is, no decode) are still
// snapshotted eagerly in phase A: they have no compute to overlap with.
// Phase C revalidates admission against whatever the video looks like by
// then.

// ReadStats reports how a read was executed.
type ReadStats struct {
	PlanCost    float64
	PlanRuns    int
	PlanMethod  string
	GOPsDecoded int
	BytesRead   int64
	Admitted    bool // result cached as a new physical video
}

// ReadResult is the answer to a read operation. Raw reads return decoded
// Frames in the requested layout; compressed reads return encoded GOPs.
type ReadResult struct {
	Frames []*frame.Frame
	GOPs   [][]byte
	Width  int // output frame width (of the ROI region)
	Height int
	FPS    int
	Stats  ReadStats
}

// FrameCount returns the number of output frames.
func (r *ReadResult) FrameCount() int {
	if len(r.Frames) > 0 {
		return len(r.Frames)
	}
	n := 0
	for _, g := range r.GOPs {
		if hd, err := codec.DecodeHeader(g); err == nil {
			n += hd.FrameCount
		}
	}
	return n
}

// physSnap copies the immutable-for-this-read fields of a PhysMeta that
// frame conversion needs, so phase B never touches shared metadata.
type physSnap struct {
	width  int
	height int
	roi    NRect
}

func snapPhys(p *PhysMeta) physSnap {
	return physSnap{width: p.Width, height: p.Height, roi: p.ROI}
}

// gopFetch is one deferred backend read: phase A records the GOP's
// address and expected size under the video lock, the prefetch stage of
// phase B performs the read. ready is closed once data/err is set.
type gopFetch struct {
	video, dir string
	seq        int
	want       int64 // stored size per the metadata snapshot (staleness check)

	ready  chan struct{}
	data   []byte
	err    error
	window chan struct{} // look-ahead tokens, released as fetches are consumed
	bytes  *atomic.Int64 // the read's BytesRead accumulator
}

// wait blocks until the fetch completes (or ctx is cancelled), releases
// the fetch's look-ahead token, and returns the bytes.
func (f *gopFetch) wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.ready:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	select {
	case <-f.window:
	default:
	}
	return f.data, f.err
}

// gopSnap carries the decode recipe of one GOP plus its stored bytes —
// captured eagerly under the video lock in phase A (the batch retry,
// passthrough, re-snapshots) or resolved from fetch descriptors by the
// prefetch stage of phase B.
type gopSnap struct {
	data          []byte
	fetch         *gopFetch // non-nil: data arrives via the prefetch stage
	losslessLevel int
	joint         *GOPJoint
	partner       []byte    // partner container bytes for right-role joint GOPs
	partnerFetch  *gopFetch // non-nil: partner arrives via the prefetch stage
	width, height int       // physical resolution (joint reconstruction canvas)
}

// decodeJob is one GOP decode executed on the worker pool. from/to bound
// the returned frames ([from, to); to = -1 means to the end). It runs
// lazily, once, for the first unit that needs the GOP, and drops its
// frames once refs units have consumed them.
type decodeJob struct {
	snap     gopSnap
	key      jobKey        // identity for the stale-fetch re-snapshot fallback
	ctr      *readCounters // the read's phase-B counters
	from, to int
	frames   []*frame.Frame
	decoded  int      // GOP streams decoded, for the read's stats
	codecID  codec.ID // codec the bytes decoded through, for per-codec metrics

	// keyed asks decode to name the snapshot it decoded in inputKey, the
	// analysis memo's key. Only predicate reads set it: other reads do
	// not pay for the hash.
	keyed    bool
	inputKey memoKey

	once   sync.Once    // run guard
	runErr error        // result of the once'd run
	refs   atomic.Int32 // units still needing frames
}

// run decodes the job at most once per read, for whichever unit needs it
// first; later callers get the first caller's result. The prefetched
// bytes are awaited BEFORE a CPU slot is taken, so a decode stalled on
// backend IO never occupies the pool.
func (j *decodeJob) run(ctx context.Context, s *Store) error {
	j.once.Do(func() {
		snap, err := j.resolve(ctx, s)
		if err == nil {
			err = s.acquireSlot(ctx)
		}
		if err != nil {
			j.runErr = err
			return
		}
		start := time.Now()
		j.runErr = j.decodeResolved(ctx, snap, s)
		obs.ObserveCodec(ctx, s.pipe, obs.StageDecode, string(j.codecID), time.Since(start))
		<-s.workSem
		if j.runErr == nil {
			j.ctr.decoded.Add(int64(j.decoded))
		}
	})
	return j.runErr
}

func (j *decodeJob) decode(snap gopSnap) error {
	frames, decoded, id, err := decodeSnap(snap, j.from, j.to)
	j.frames, j.decoded, j.codecID = frames, decoded, id
	if err == nil && j.keyed {
		j.inputKey = snap.inputKey(j.from, j.to)
	}
	return err
}

// decodeResolved decodes the resolved snapshot. When the bytes came from
// a prefetched fetch, a decode failure retries once from a fresh
// under-lock snapshot: an in-place rewrite that lands on the same byte
// count slips past fetchStale's size check, and the retry converts that
// razor-thin race into a correct read instead of a spurious decode
// error. Genuine corruption still surfaces — eagerly snapshotted bytes
// never retry, and a retry that decodes no better reports the failure.
func (j *decodeJob) decodeResolved(ctx context.Context, snap gopSnap, s *Store) error {
	err := j.decode(snap)
	if err == nil || (snap.fetch == nil && snap.partnerFetch == nil) {
		return err
	}
	fresh, rerr := s.resnapshotGOP(ctx, j.key, &j.ctr.bytes)
	if rerr != nil {
		return err // the original decode error, not the retry's
	}
	return j.decode(fresh)
}

// fetchStale reports whether a prefetched read raced a metadata change
// and must be retried under the video lock: the file vanished (eviction
// or compaction won) or its size no longer matches the phase-A snapshot
// (joint compression or deferred lossless rewrote it in place).
func fetchStale(err error, got int, want int64) bool {
	if err != nil {
		return errors.Is(err, fs.ErrNotExist)
	}
	return int64(got) != want
}

// resolve materializes the job's snapshot: wait for the prefetched
// bytes, or — when the fetch proves stale — re-snapshot this one GOP
// under the video lock, which re-resolves its current recipe
// (duplicate/joint/lossless state may all have changed) and reads its
// bytes while nothing can move them.
func (j *decodeJob) resolve(ctx context.Context, s *Store) (gopSnap, error) {
	snap := j.snap
	if snap.fetch != nil {
		data, err := snap.fetch.wait(ctx)
		if err != nil || fetchStale(err, len(data), snap.fetch.want) {
			// Any early exit must consume (and discard) the partner fetch
			// too: its look-ahead token has to return to the window, or a
			// run of failing joint GOPs (a degraded shard erroring with
			// something other than ENOENT) would shrink the window until
			// the fetchers wedge.
			if snap.partnerFetch != nil {
				snap.partnerFetch.wait(ctx) //nolint:errcheck
			}
			if fetchStale(err, len(data), snap.fetch.want) {
				return s.resnapshotGOP(ctx, j.key, &j.ctr.bytes)
			}
			return gopSnap{}, err
		}
		snap.data = data
	}
	if snap.partnerFetch != nil {
		data, err := snap.partnerFetch.wait(ctx)
		if fetchStale(err, len(data), snap.partnerFetch.want) {
			return s.resnapshotGOP(ctx, j.key, &j.ctr.bytes)
		}
		if err != nil {
			return gopSnap{}, err
		}
		snap.partner = data
	}
	return snap, nil
}

// frameSrc names one output frame of a transcoded segment: a frame of a
// decoded GOP plus the conversion parameters into output space.
type frameSrc struct {
	job *decodeJob
	idx int // index into job.frames
	p   physSnap
}

// readCounters accumulates a read's phase-B work for its stats.
type readCounters struct {
	bytes   atomic.Int64 // stored bytes fetched (prefetch and re-snapshots)
	decoded atomic.Int64 // GOP streams decoded
}

// readJob is the fully snapshotted execution state of one read, handed
// from phase A to phase B, plus what phase C needs to admit its output.
type readJob struct {
	r         resolvedSpec
	units     []*streamUnit // ordered output units
	fetches   []*gopFetch   // backend reads for the prefetch stage, plan order
	ctr       readCounters
	stats     ReadStats // plan fields, plus bytes read under the lock
	fragIDs   []int     // physical videos the plan used
	parentMSE float64   // worst quality loss among them
}

// readBuilder accumulates the readJob during phase A, deduplicating
// decode work per stored GOP.
type readBuilder struct {
	s       *Store
	held    map[string]*videoState
	vs      *videoState
	r       resolvedSpec
	stats   *ReadStats
	c       *snapCollector
	jobs    map[jobKey]*decodeJob
	units   []*streamUnit
	pending []frameSrc // transcoded frames not yet cut into units
	touched map[int]*PhysMeta
}

// snapCollector threads the snapshot policy of one read through
// snapshotGOP: eager reads GOP bytes immediately under the video lock
// (counting into stats — used by the batch retry and by stale-fetch
// re-snapshots); otherwise each stored GOP registers a fetch descriptor
// for the phase-B prefetch stage. ctx is the read's request context,
// carried to eager backend reads (cancellation + trace propagation on
// network backends).
type snapCollector struct {
	ctx     context.Context
	stats   *ReadStats
	eager   bool
	ctr     *readCounters // phase-B counters, shared with fetches
	fetches []*gopFetch
}

// fetchFor registers one deferred backend read.
func (c *snapCollector) fetchFor(video, dir string, seq int, want int64) *gopFetch {
	f := &gopFetch{
		video: video, dir: dir, seq: seq, want: want,
		ready: make(chan struct{}), bytes: &c.ctr.bytes,
	}
	c.fetches = append(c.fetches, f)
	return f
}

type jobKey struct {
	video    string
	phys     int
	seq      int
	from, to int
}

// Read executes a read operation per Section 3: it resolves the request,
// selects a minimal-cost fragment set over the cached materialized views,
// decodes and converts the data in parallel on the worker pool, optionally
// caches the result, and returns it in the requested spatial/temporal/
// physical configuration. Safe for concurrent use; reads of different
// videos do not serialize.
func (s *Store) Read(video string, spec ReadSpec) (*ReadResult, error) {
	return s.ReadContext(context.Background(), video, spec)
}

// ReadContext is Read with cancellation: when ctx is cancelled the read's
// remaining decode/convert/encode work is abandoned promptly (workers stop
// between GOP-granular tasks) and the context's error is returned. An
// already-cancelled context performs no decode work at all. Cancellation
// after the compute phase does not interrupt cache admission, which is
// metadata-only and must not be torn.
func (s *Store) ReadContext(ctx context.Context, video string, spec ReadSpec) (*ReadResult, error) {
	out, err := s.readOnce(ctx, video, spec, false)
	if errors.Is(err, errDanglingRef) {
		// The prefetch stage lost a race the eager snapshot cannot lose:
		// a planned GOP was evicted (and is not merely rewritten) between
		// phase A and its fetch. The video itself is intact — a fresh
		// plan reads it from the surviving views — so retry once with the
		// eager snapshot, which reads every byte under the lock and is
		// immune by construction. Nothing has reached the caller yet.
		return s.readOnce(ctx, video, spec, true)
	}
	return out, err
}

// readOnce runs one full read attempt: it drains the read's unit stream
// (phases A and B) and then runs phase C on the whole output. eager
// selects the under-lock byte snapshot instead of the prefetch stage.
func (s *Store) readOnce(ctx context.Context, video string, spec ReadSpec, eager bool) (*ReadResult, error) {
	st, err := s.openReadStream(ctx, video, spec, eager, true)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := &ReadResult{Width: st.Width, Height: st.Height, FPS: st.FPS}
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out.Frames = append(out.Frames, b.Frames...)
		if b.GOP != nil {
			out.GOPs = append(out.GOPs, b.GOP)
		}
	}
	res := readOutput{frames: out.Frames, gops: out.GOPs}
	if st.sampleUnit >= 0 {
		// Compressed units map one to one onto output GOPs.
		res.sampleRef, res.sampleGOP = st.job.units[st.sampleUnit].sample, out.GOPs[st.sampleUnit]
	}
	// Uncompressed reads drive deferred compression (Section 5.2).
	admitted, err := st.admit(res, !st.job.r.codec.Compressed())
	if err != nil {
		return nil, err
	}
	out.Stats = st.Stats()
	out.Stats.Admitted = admitted
	return out, nil
}

// withVideos runs fn with the named videos locked (sorted order),
// expanding the lock set and retrying when fn chases a duplicate/joint
// reference into a video outside the set. Primary videos must exist;
// referenced videos that do not exist surface as dangling-ref errors.
func (s *Store) withVideos(primary []string, fn func(held map[string]*videoState) error) error {
	need := make(map[string]bool, len(primary))
	for _, n := range primary {
		need[n] = true
	}
	for {
		held := s.acquireSet(need)
		var err error
		for _, n := range primary {
			if held[n] == nil {
				err = ErrNotFound
			}
		}
		if err == nil {
			err = fn(held)
		}
		s.releaseSet(held)
		if nv, ok := err.(errVideosNeeded); ok {
			progress := false
			for _, n := range nv.names {
				if !need[n] {
					need[n] = true
					progress = true
				}
			}
			if progress {
				continue
			}
			return fmt.Errorf("%w into missing video %v", errDanglingRef, nv.names)
		}
		return err
	}
}

// prepareRead is phase A: plan the read and snapshot everything phase B
// needs (byte reads included when eager, fetch descriptors otherwise).
// Caller holds the locks in held, which must include vs. ctx reaches
// eager backend reads only — phase A itself is not cancellable
// mid-plan (its metadata writes must not be torn).
func (s *Store) prepareRead(ctx context.Context, held map[string]*videoState, vs *videoState, spec ReadSpec, eager bool) (*readJob, error) {
	v := vs.meta
	r, err := s.resolve(v, spec)
	if err != nil {
		return nil, err
	}
	// One LRU tick per read operation: every page the read touches shares
	// the same sequence number, so the position and redundancy offsets of
	// LRU_VSS break ties within an operation (Section 4).
	s.tick(v)
	plan, err := s.plan(vs, r)
	if err != nil {
		return nil, err
	}

	job := &readJob{r: r, fragIDs: plan.Fragments()}
	job.stats = ReadStats{PlanCost: plan.Cost, PlanRuns: plan.Runs, PlanMethod: plan.Method}
	for _, st := range plan.steps {
		if m := useMSE(st.phys, r); m > job.parentMSE {
			job.parentMSE = m
		}
	}

	b := &readBuilder{
		s: s, held: held, vs: vs, r: r, stats: &job.stats,
		c:       &snapCollector{ctx: ctx, stats: &job.stats, eager: eager, ctr: &job.ctr},
		jobs:    make(map[jobKey]*decodeJob),
		touched: make(map[int]*PhysMeta),
	}
	if r.codec.Compressed() {
		err = b.buildCompressed(plan)
	} else {
		err = b.buildRaw(plan)
	}
	if err != nil {
		return nil, err
	}
	b.flush()
	// Persist the LRU touches made while building the snapshot.
	for _, p := range b.touched {
		if err := s.savePhys(v.Name, p); err != nil {
			return nil, err
		}
	}
	if err := s.saveVideo(v); err != nil {
		return nil, err
	}
	job.units, job.fetches = b.units, b.c.fetches
	return job, nil
}

// jobFor returns the (deduplicated) decode job for frames [from, to) of a
// stored GOP, snapshotting its bytes on first use.
func (b *readBuilder) jobFor(vs *videoState, p *PhysMeta, g *GOPMeta, from, to int) (*decodeJob, error) {
	key := jobKey{vs.meta.Name, p.ID, g.Seq, from, to}
	if j, ok := b.jobs[key]; ok {
		return j, nil
	}
	snap, err := b.s.snapshotGOP(b.held, vs, p, g, b.c)
	if err != nil {
		return nil, err
	}
	j := &decodeJob{snap: snap, key: key, ctr: b.c.ctr, from: from, to: to}
	b.jobs[key] = j
	return j, nil
}

// flush cuts the pending transcoded frames into GOPFrames-long units.
// Frames carry across adjacent transcode runs; only a passthrough GOP
// (or the end of the plan) flushes.
func (b *readBuilder) flush() {
	n := b.s.opts.GOPFrames
	for i := 0; i < len(b.pending); i += n {
		b.units = append(b.units, newStreamUnit(b.pending[i:min(i+n, len(b.pending))]))
	}
	b.pending = nil
}

// buildCompressed plans mixed execution for compressed output: runs of
// the plan whose fragment is already in the output configuration are
// emitted as stored bitstreams without decoding (whole aligned GOPs) —
// only run edges and format-mismatched runs pay decode + re-encode. This
// is why VSS's same-format reads stay within a small constant of the raw
// file system (Figure 14), and why a populated cache cuts long-read time
// (Figure 10) rather than only planner cost.
func (b *readBuilder) buildCompressed(plan *Plan) error {
	type runSeg struct {
		phys *PhysMeta
		a, b float64
	}
	var runs []runSeg
	for _, st := range plan.steps {
		if n := len(runs); n > 0 && runs[n-1].phys.ID == st.phys.ID {
			runs[n-1].b = st.b
			continue
		}
		runs = append(runs, runSeg{st.phys, st.a, st.b})
	}

	v := b.vs.meta
	for _, rn := range runs {
		p := rn.phys
		b.touched[p.ID] = p
		if !matchesOutput(p, b.r) {
			// Format mismatch: transcode the run.
			srcs, err := b.runSrcs(p, rn.a, rn.b)
			if err != nil {
				return err
			}
			b.pending = append(b.pending, srcs...)
			continue
		}
		fps := float64(p.FPS)
		for i := range p.GOPs {
			g := &p.GOPs[i]
			ga, gb := p.gopSpan(g)
			if gb <= rn.a+timeEps || ga >= rn.b-timeEps {
				continue
			}
			aligned := ga >= rn.a-timeEps && gb <= rn.b+timeEps &&
				g.Joint == nil && g.DupOf == nil && g.Lossless == 0
			if aligned {
				data, err := b.s.readGOP(b.c.ctx, v.Name, p.Dir, g.Seq, g.Bytes)
				if err != nil {
					return err
				}
				b.stats.BytesRead += int64(len(data))
				b.flush()
				b.units = append(b.units, &streamUnit{pass: data, frames: g.Frames})
				g.LRU = v.Clock
				continue
			}
			// Partial or indirect GOP: decode only the needed frames.
			from := int(math.Round((rn.a - ga) * fps))
			if from < 0 {
				from = 0
			}
			to := g.Frames - int(math.Round((gb-rn.b)*fps))
			if to > g.Frames {
				to = g.Frames
			}
			if to <= from {
				continue
			}
			job, err := b.jobFor(b.vs, p, g, from, to)
			if err != nil {
				return err
			}
			g.LRU = v.Clock
			for k := 0; k < to-from; k++ {
				b.pending = append(b.pending, frameSrc{job: job, idx: k, p: snapPhys(p)})
			}
		}
	}
	return nil
}

// buildRaw plans the raw-output path: every planned run is transcoded.
func (b *readBuilder) buildRaw(plan *Plan) error {
	for i := 0; i < len(plan.steps); {
		// Group contiguous steps on the same fragment into one run.
		j := i
		for j+1 < len(plan.steps) && plan.steps[j+1].phys.ID == plan.steps[i].phys.ID {
			j++
		}
		st := plan.steps[i]
		b.touched[st.phys.ID] = st.phys
		srcs, err := b.runSrcs(st.phys, st.a, plan.steps[j].b)
		if err != nil {
			return err
		}
		b.pending = append(b.pending, srcs...)
		i = j + 1
	}
	return nil
}

// runSrcs maps one plan run to frame sources: for each output frame it
// locates the covering GOP, registers a (deduplicated) full-GOP decode
// job, and records the frame index plus conversion parameters.
func (b *readBuilder) runSrcs(p *PhysMeta, a, bEnd float64) ([]frameSrc, error) {
	r := b.r
	nOut := int(math.Round((bEnd - a) * float64(r.outFPS)))
	if nOut < 1 {
		nOut = 1
	}
	v := b.vs.meta
	srcs := make([]frameSrc, 0, nOut)
	for k := 0; k < nOut; k++ {
		tk := a + (float64(k)+0.5)/float64(r.outFPS)
		local := int((tk - p.Start) * float64(p.FPS))
		g := gopContaining(p, local)
		if g == nil {
			return nil, fmt.Errorf("core: no GOP for t=%f in phys %d", tk, p.ID)
		}
		job, err := b.jobFor(b.vs, p, g, 0, -1)
		if err != nil {
			return nil, err
		}
		g.LRU = v.Clock
		idx := local - g.StartFrame
		if idx < 0 {
			idx = 0
		}
		if idx >= g.Frames {
			idx = g.Frames - 1
		}
		srcs = append(srcs, frameSrc{job: job, idx: idx, p: snapPhys(p)})
	}
	return srcs, nil
}

// snapshotGOP captures the decode recipe of one GOP, resolving duplicate
// pointers and joint partners through the held lock set. Bytes are read
// immediately (eager collector) or registered as fetch descriptors for
// the prefetch stage. Returns errVideosNeeded when a reference escapes
// the set.
func (s *Store) snapshotGOP(held map[string]*videoState, vs *videoState, p *PhysMeta, g *GOPMeta, c *snapCollector) (gopSnap, error) {
	if g.DupOf != nil {
		dvs, dp, dg, err := resolveRefIn(held, *g.DupOf)
		if err != nil {
			return gopSnap{}, err
		}
		return s.snapshotGOP(held, dvs, dp, dg, c)
	}
	// For right-role joint GOPs, resolve the partner BEFORE any IO so a
	// missing lock costs nothing.
	var partnerP *PhysMeta
	var partnerG *GOPMeta
	if g.Joint != nil && g.Joint.Role == "right" {
		var err error
		_, partnerP, partnerG, err = resolveRefIn(held, g.Joint.Partner)
		if err != nil {
			return gopSnap{}, err
		}
	}
	snap := gopSnap{losslessLevel: g.Lossless, width: p.Width, height: p.Height}
	if c.eager {
		data, err := s.readGOP(c.ctx, vs.meta.Name, p.Dir, g.Seq, g.Bytes)
		if err != nil {
			return gopSnap{}, err
		}
		c.stats.BytesRead += int64(len(data))
		snap.data = data
	} else {
		snap.fetch = c.fetchFor(vs.meta.Name, p.Dir, g.Seq, g.Bytes)
	}
	if g.Joint != nil {
		j := *g.Joint
		snap.joint = &j
		if partnerP != nil {
			if c.eager {
				pdata, err := s.readGOP(c.ctx, j.Partner.Video, partnerP.Dir, j.Partner.Seq, partnerG.Bytes)
				if err != nil {
					return gopSnap{}, err
				}
				c.stats.BytesRead += int64(len(pdata))
				snap.partner = pdata
			} else {
				snap.partnerFetch = c.fetchFor(j.Partner.Video, partnerP.Dir, j.Partner.Seq, partnerG.Bytes)
			}
		}
	}
	return snap, nil
}

// resnapshotGOP re-snapshots one GOP under its video's lock after the
// prefetch stage found the stored bytes changed identity between
// planning and fetch (evicted, jointly compressed, or lossless-
// recompressed). The job key addresses the GOP as the plan saw it;
// duplicate and joint references are re-chased from current metadata,
// so the returned snapshot is internally consistent whatever happened
// in between. A GOP that is truly gone surfaces as a dangling-ref error.
func (s *Store) resnapshotGOP(ctx context.Context, key jobKey, bytes *atomic.Int64) (gopSnap, error) {
	var snap gopSnap
	var stats ReadStats
	c := &snapCollector{ctx: ctx, stats: &stats, eager: true}
	err := s.withVideos([]string{key.video}, func(held map[string]*videoState) error {
		vs := held[key.video]
		p := vs.byID(key.phys)
		if p == nil {
			return fmt.Errorf("%w: phys %d of %s", errDanglingRef, key.phys, key.video)
		}
		g := findGOP(p, key.seq)
		if g == nil {
			return fmt.Errorf("%w: seq %d of %s/%d", errDanglingRef, key.seq, key.video, key.phys)
		}
		var err error
		snap, err = s.snapshotGOP(held, vs, p, g, c)
		return err
	})
	if err != nil {
		return gopSnap{}, err
	}
	if bytes != nil {
		bytes.Add(stats.BytesRead)
	}
	return snap, nil
}

// startPrefetch launches the asynchronous IO stage of phase B: fetchers
// issue backend reads in plan order, running at most 2*Workers fetched-
// but-unconsumed GOPs ahead of the decode workers — the same look-ahead
// discipline that bounds the units in flight. Fetchers need no CPU-pool
// slot (they only block on IO), so backend reads overlap decode work
// slot-for-slot. They exit when every fetch is issued or ctx is
// cancelled; waiters observe cancellation through their own ctx select,
// so no fetch is ever waited on forever.
func (s *Store) startPrefetch(ctx context.Context, fetches []*gopFetch) {
	if len(fetches) == 0 {
		return
	}
	window := make(chan struct{}, 2*s.opts.Workers)
	for _, f := range fetches {
		f.window = window
	}
	workers := s.opts.Workers
	if workers > len(fetches) {
		workers = len(fetches)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fetches) {
					return
				}
				f := fetches[i]
				select {
				case window <- struct{}{}:
				case <-ctx.Done():
					f.err = context.Cause(ctx)
					close(f.ready)
					return
				}
				f.data, f.err = s.readGOP(ctx, f.video, f.dir, f.seq, f.want)
				if f.err == nil && f.bytes != nil {
					f.bytes.Add(int64(len(f.data)))
				}
				close(f.ready)
			}
		}()
	}
}

// decodeSnap decodes frames [from, to) of a snapshotted GOP. It is a pure
// function of the snapshot — callable without any lock. The returned ID is
// the codec the stored bytes actually decoded through (which per-codec
// pipeline metrics attribute time to); it can differ from the physical
// video's nominal codec when the deferred tier has rewritten a raw GOP
// through the fast lossless codec.
func decodeSnap(snap gopSnap, from, to int) ([]*frame.Frame, int, codec.ID, error) {
	if snap.joint != nil {
		frames, decoded, id, err := decodeJointSnap(snap)
		if err != nil {
			return nil, decoded, id, err
		}
		if to < 0 || to > len(frames) {
			to = len(frames)
		}
		if from < 0 || from > to {
			return nil, decoded, id, fmt.Errorf("core: bad GOP range [%d,%d)", from, to)
		}
		return frames[from:to], decoded, id, nil
	}
	data := snap.data
	// Deferred-lossless state is sniffed from the bytes, not the metadata
	// level: flate-era entries carry the VSL1 block framing, while GOPs the
	// deferred tier rewrote through the ls codec are plain containers that
	// decode directly.
	if lossless.IsCompressed(data) {
		var err error
		data, err = lossless.Decompress(data)
		if err != nil {
			return nil, 0, "", err
		}
	}
	frames, hd, err := codec.DecodeRange(data, from, to)
	if err != nil {
		return nil, 0, hd.Codec, err
	}
	return frames, 1, hd.Codec, nil
}

// gopContaining finds the GOP holding a local frame index.
func gopContaining(p *PhysMeta, local int) *GOPMeta {
	for i := range p.GOPs {
		g := &p.GOPs[i]
		if local >= g.StartFrame && local < g.StartFrame+g.Frames {
			return g
		}
	}
	// Tolerate edge rounding: return the last GOP if local is just past
	// the end.
	if n := len(p.GOPs); n > 0 && local >= p.GOPs[n-1].StartFrame {
		return &p.GOPs[n-1]
	}
	return nil
}

// convertFrame maps a decoded source frame into the requested output
// space: ROI crop and resolution resampling in the frame's own format (a
// planar crop passes through RGB), then one conversion to the read's output
// format. For raw output the result never shares Data with src. Pure
// function — safe on the worker pool.
func convertFrame(src *frame.Frame, p physSnap, r resolvedSpec) (*frame.Frame, error) {
	// Map the requested normalized ROI into p's pixel space (p may itself
	// be an ROI view of the source frame).
	pw, ph := float64(p.width), float64(p.height)
	rx := (r.roi.X0 - p.roi.X0) / (p.roi.X1 - p.roi.X0)
	ry := (r.roi.Y0 - p.roi.Y0) / (p.roi.Y1 - p.roi.Y0)
	rx1 := (r.roi.X1 - p.roi.X0) / (p.roi.X1 - p.roi.X0)
	ry1 := (r.roi.Y1 - p.roi.Y0) / (p.roi.Y1 - p.roi.Y0)
	crop := frame.Rect{
		X0: int(rx*pw + 0.5), Y0: int(ry*ph + 0.5),
		X1: int(rx1*pw + 0.5), Y1: int(ry1*ph + 0.5),
	}
	if crop.Dx() < 1 {
		crop.X1 = crop.X0 + 1
	}
	if crop.Dy() < 1 {
		crop.Y1 = crop.Y0 + 1
	}
	f := src
	if crop != frame.FullRect(p.width, p.height) {
		var err error
		if f, err = src.Crop(crop); err != nil {
			return nil, err
		}
	}
	if f.Width != r.roiW || f.Height != r.roiH {
		f = f.Resize(r.roiW, r.roiH)
	}
	// An encoder only reads its input, so compressed output may encode the
	// decoded frame itself; raw output goes to the caller, and every frame
	// gets pixels of its own.
	if f.Format != r.format || (f == src && !r.codec.Compressed()) {
		f = f.Convert(r.format) // a copy when the format already matches
	}
	return f, nil
}

// estimateStepMSE estimates the quality loss introduced by this read's
// compression step (Section 3.2). The primary estimate is the codec's
// analytic quantizer distortion (our substitute for the vbench-seeded
// MBPP->PSNR table); the sampling-refined estimator serves as a secondary
// signal once enough exact observations accumulate.
func (s *Store) estimateStepMSE(r resolvedSpec, mbpp float64) float64 {
	if !r.codec.Compressed() {
		return 0
	}
	step := codec.ExpectedMSE(r.quality)
	if est := quality.MSEFromPSNR(s.est.Estimate(mbpp)); est > step && s.est.Len() > len(quality.DefaultRatePoints)+4 {
		// The refined estimator has seen enough real samples to override
		// the analytic bound when it reports worse quality.
		step = est
	}
	return step
}
