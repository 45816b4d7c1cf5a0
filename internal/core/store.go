package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/storage"
)

// Options configure a Store. The zero value selects the paper's prototype
// defaults; ablation flags exist to reproduce the paper's baselines
// (greedy planning in Figure 10, ordinary LRU in Figures 12/16, deferred
// compression off in Figure 12).
type Options struct {
	// BudgetMultiple sets each video's default storage budget as a
	// multiple of its originally written size (paper default 10). <0
	// means unlimited.
	BudgetMultiple float64
	// GOPFrames is the GOP length for compressed writes (paper: codecs
	// typically use 30-300; prototype default 30).
	GOPFrames int
	// Workers bounds the store-wide pool of CPU workers that runs the
	// parallel GOP decode/convert/encode pipeline inside Read and sizes
	// each Writer's encode pipeline (Workers encoders, 2*Workers GOPs in
	// flight). The pool is shared by every concurrent read and write so
	// total CPU fan-out stays bounded regardless of client count. 0
	// selects GOMAXPROCS; 1 makes read execution fully serial (useful
	// for deterministic profiling).
	Workers int
	// Backend selects the physical GOP store. nil selects the default
	// single-root localfs backend under <dir>/data — unless the
	// VSS_BACKEND environment variable overrides it ("mem", "sharded:N"
	// for N roots under <dir>, or "sharded:N:R" for N roots with R-way
	// replication; the hook that lets CI run the whole suite against
	// another backend without code changes). Pass storage.OpenSharded /
	// storage.OpenShardedReplicated roots for multi-disk deployments or
	// storage.NewMem for IO-free operation; the vss package re-exports
	// constructors. The catalog always lives on the local filesystem
	// under <dir>/catalog regardless of backend.
	Backend storage.Backend
	// SnapshotCatalog replicates the metadata catalog into the storage
	// backend on every Maintain pass: the catalog is snapshotted (WAL
	// folded in), then written as a GOP under the reserved
	// storage.CatalogSnapshotVideo address, riding the backend's normal
	// write path — on a replicated backend every replica holds a copy.
	// This closes the catalog's single-point-of-failure for deployments
	// whose GOP bytes outlive the store directory (vssd -nodes fronting
	// a vssd fleet): RestoreCatalog rebuilds <dir>/catalog from
	// the backend copy. Pointless (and off by default) when the backend
	// lives under <dir> anyway.
	SnapshotCatalog bool

	// GreedyPlanner selects the dependency-naive greedy baseline instead
	// of the solver (Section 6.1 comparison).
	GreedyPlanner bool
	// OrdinaryLRU disables the position/redundancy offsets of LRU_VSS.
	OrdinaryLRU bool
	// DisableCache turns off caching of read results.
	DisableCache bool
	// DisableDeferred turns off deferred compression.
	DisableDeferred bool
}

// The paper's remaining parameters, fixed at its prototype defaults:
// LRU_VSS weights γ=2 and ζ=1 (Section 4), the default read cutoff
// ε = quality.Lossless (40 dB), deferred compression above 25% of the
// budget (Section 5.2), raw GOP blocks of at most 25MB (one rgb 4K frame;
// larger frames are stored one per block), and an estimator sample of
// every 16th cached compressed GOP (Section 3.2). The transcode α table
// is cost.Default().
const (
	lruGamma, lruZeta         = 2.0, 1.0
	defaultMinPSNR            = quality.Lossless
	defaultDeferredThreshold  = 0.25
	defaultRawBlockBytes      = 25 << 20
	defaultQualitySampleEvery = 16
	// jointMinPSNR is the recovered-quality threshold below which joint
	// compression of a GOP pair is aborted. The paper aborts below 24 dB;
	// its own Table 2 reports recovered-right quality of exactly 24 dB on
	// high-overlap data. Our synthetic warps land ~1 dB lower in the same
	// regime, so the bound scales to 22 to keep those pairs admissible
	// (the table2 experiment reports the recovered quality).
	jointMinPSNR = 22
)

// costModel is the planner's transcode α table.
var costModel = cost.Default()

func (o Options) withDefaults() Options {
	if o.BudgetMultiple == 0 {
		o.BudgetMultiple = 10
	}
	if o.GOPFrames == 0 {
		o.GOPFrames = 30
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// videoState bundles one logical video's mutable state with the lock that
// guards it. It is the unit of concurrency in the store: operations on
// different videos proceed fully in parallel, operations on the same video
// serialize on vs.mu.
//
// Locking contract: vs.mu guards meta, the phys map, and every PhysMeta /
// GOPMeta reachable from it. The registry entry (Store.videos[name]) is
// guarded by Store.mu; acquire a videoState only through Store.acquire or
// Store.acquireSet so delete/recreate races are handled.
type videoState struct {
	mu   sync.Mutex
	meta *VideoMeta
	phys map[int]*PhysMeta // id -> meta
	// gone is set by Delete before it removes any file, so a read's
	// fetch that lost the race reports ErrNotFound.
	gone atomic.Bool
}

// totalBytes sums the stored size of the video. Caller holds vs.mu.
func (vs *videoState) totalBytes() int64 {
	var total int64
	for _, p := range vs.phys {
		total += p.Bytes()
	}
	return total
}

// byID returns a physical video record, or nil. Caller holds vs.mu.
func (vs *videoState) byID(id int) *PhysMeta { return vs.phys[id] }

// original returns the originally written physical video (m0), or nil.
// Caller holds vs.mu.
func (vs *videoState) original() *PhysMeta {
	if vs.meta.Original < 0 {
		return nil
	}
	return vs.phys[vs.meta.Original]
}

// Store is the VSS storage manager instance rooted at a directory.
//
// Concurrency model (two-tier locking):
//
//   - Store.mu is the short-lived registry lock. It guards only the
//     videos map (which logical videos exist and their videoState
//     identity). It is never held while blocking on a per-video lock or
//     doing IO or CPU work.
//   - Each videoState.mu serializes metadata mutation for one video.
//     Reads and writes to different videos never contend.
//   - Cross-video operations (joint compression, reads that chase
//     duplicate/joint references) lock every involved video in sorted
//     name order via acquireSet, which makes deadlock impossible.
//   - The CPU-heavy decode/convert/encode work of a read runs OUTSIDE
//     any lock on a bounded worker pool (workSem, sized Options.Workers):
//     the read snapshots the GOP bytes it needs while holding the video
//     lock, releases it, computes, and re-acquires only for admission.
//
// The catalog (internal/catalog) and file store (internal/storage) are
// internally safe for concurrent use.
type Store struct {
	dir   string
	opts  Options
	files *storage.Instrumented // metrics-wrapped Options.Backend
	cat   *catalog.DB
	est   *quality.Estimator
	pipe  *obs.Pipeline // per-stage latency histograms (never nil)

	mu     sync.Mutex // registry lock; see concurrency model above
	videos map[string]*videoState

	workSem chan struct{} // bounded worker pool for read execution

	// Tunables Open fills from the package constants; in-package tests
	// shrink them to exercise their paths at small sizes.
	streamAdmitBytes   int64   // encoded output a compressed stream buffers for admission
	rawBlockBytes      int64   // raw GOP block cap
	deferredThreshold  float64 // budget fraction that activates deferred compression
	qualitySampleEvery int     // estimator samples every Nth cached compressed GOP

	sampleMu      sync.Mutex // guards sampleCounter (est locks itself)
	sampleCounter int

	memo *analysisMemo // per-GOP analyses predicate reads reuse (memo.go)
	pins pinSet        // GOPs running reads have planned (reader.go)

	bgMu sync.Mutex      // guards bg
	bg   BackgroundStats // the background loop's passes (deferred.go)
}

// ErrNotFound is returned for operations on unknown videos.
var ErrNotFound = errors.New("core: video not found")

// ErrExists is returned when creating a video that already exists.
var ErrExists = errors.New("core: video already exists")

// ErrInvalidSpec marks read parameters the store can never satisfy
// (unknown codec, interval outside the video, bad resolution/ROI/fps).
// Serving layers match it to distinguish a client's bad request from a
// real storage failure.
var ErrInvalidSpec = errors.New("core: invalid read spec")

// errVideosNeeded reports that an operation under a lock set followed a
// duplicate/joint reference into a video whose lock is not held. The
// caller expands its set and retries.
type errVideosNeeded struct{ names []string }

func (e errVideosNeeded) Error() string {
	return fmt.Sprintf("core: operation needs locks on %v", e.names)
}

// errDanglingRef marks a GOP reference whose target no longer exists
// (evicted, deleted, or replaced between operations). Sweeps that tolerate
// concurrent churn match it with errors.Is and skip the work item.
var errDanglingRef = errors.New("core: dangling GOP ref")

// Open opens (creating if necessary) a VSS store in dir.
func Open(dir string, opts Options) (*Store, error) {
	backend, err := backendFor(dir, opts.Backend)
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Open(filepath.Join(dir, "catalog"))
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   opts.withDefaults(),
		files:  storage.Instrument(backend),
		cat:    cat,
		est:    quality.NewEstimator(nil),
		pipe:   obs.NewPipeline(),
		videos: make(map[string]*videoState),

		streamAdmitBytes:   streamAdmitBytes,
		rawBlockBytes:      defaultRawBlockBytes,
		deferredThreshold:  defaultDeferredThreshold,
		qualitySampleEvery: defaultQualitySampleEvery,
		memo:               newAnalysisMemo(analysisMemoBytes),
	}
	s.workSem = make(chan struct{}, s.opts.Workers)
	if err := s.load(); err != nil {
		cat.Close()
		return nil, err
	}
	return s, nil
}

// backendFor resolves the effective storage backend: an explicit
// Options.Backend wins; otherwise the VSS_BACKEND environment variable
// may redirect the default ("mem" for a process-shared in-memory store,
// "sharded:N" for N roots under dir — the hook CI uses to run the test
// suite against other backends); otherwise localfs under <dir>/data.
func backendFor(dir string, explicit storage.Backend) (storage.Backend, error) {
	if explicit != nil {
		return explicit, nil
	}
	switch env := os.Getenv("VSS_BACKEND"); {
	case env == "" || env == "localfs":
		return storage.Open(filepath.Join(dir, "data"))
	case env == "mem":
		return storage.SharedMem(dir), nil
	case strings.HasPrefix(env, "sharded:"):
		spec := strings.TrimPrefix(env, "sharded:")
		nStr, rStr, hasR := strings.Cut(spec, ":")
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad VSS_BACKEND %q: want sharded:N[:R] with N >= 1", env)
		}
		replicas := 1
		if hasR {
			replicas, err = strconv.Atoi(rStr)
			if err != nil || replicas < 1 || replicas > n {
				return nil, fmt.Errorf("core: bad VSS_BACKEND %q: want sharded:N:R with 1 <= R <= N", env)
			}
		}
		return storage.OpenShardedReplicated(ShardRoots(dir, n), replicas)
	default:
		return nil, fmt.Errorf("core: unknown VSS_BACKEND %q", env)
	}
}

// ShardRoots returns the conventional shard root directories for a store
// at dir: <dir>/data-shard0 .. data-shard{n-1}. Using the convention (in
// vssd, vssctl, and the env hook) keeps independent processes agreeing
// on placement for the same -shards count.
func ShardRoots(dir string, n int) []string {
	roots := make([]string, n)
	for i := range roots {
		roots[i] = filepath.Join(dir, fmt.Sprintf("data-shard%d", i))
	}
	return roots
}

// BackendStats snapshots the storage backend's operation counters
// (reads/writes, bytes, cumulative latency). Safe for concurrent use.
func (s *Store) BackendStats() storage.BackendStats { return s.files.Stats() }

// Backend exposes the store's (metrics-instrumented) storage backend:
// the GOP plane a vssd node serves over its /gops endpoints, so a router
// fleet can use this store as a remote replica. Operations through it
// count in BackendStats like the store's own.
func (s *Store) Backend() storage.Backend { return s.files }

// ClusterStats snapshots routed-fleet health (per-node errors and
// demotions, write-repair journal depth, repair and scrub counters) when
// the backend routes GOPs across remote nodes (internal/router). ok is
// false for local backends. Safe for concurrent use.
func (s *Store) ClusterStats() (storage.ClusterStats, bool) {
	cr := storage.AsClusterReporter(s.files)
	if cr == nil {
		return storage.ClusterStats{}, false
	}
	return cr.ClusterStats(), true
}

// ReplicationStats snapshots replica placement, read-failover, per-shard
// health, and scrub counters when the backend keeps redundant copies
// (the replicated sharded backend). ok is false for backends with no
// replication (localfs, mem). Safe for concurrent use.
func (s *Store) ReplicationStats() (storage.ReplicationStats, bool) {
	sc := storage.AsScrubber(s.files)
	if sc == nil {
		return storage.ReplicationStats{}, false
	}
	return sc.ReplicationStats(), true
}

// scrub runs one replication scrub pass when the backend keeps
// redundant copies, feeding it the catalog's expected GOP sizes so a
// repair always restores the bytes the metadata describes: a stale
// replica (a write that missed a flapping shard) can never win over the
// copy the catalog points at, whatever their relative sizes. A backend
// with replication machinery but a single copy per GOP (sharded at
// replicas=1) is skipped — there is nothing to repair from, and the
// full-tree walk plus catalog snapshot would tax every Maintain for
// nothing.
func (s *Store) scrub() error {
	sc := storage.AsScrubber(s.files)
	if sc == nil || sc.ReplicationStats().Replicas < 2 {
		return nil
	}
	_, err := sc.Scrub(s.sizeOracle())
	return err
}

// sizeOracle builds the scrub's storage.SizeOracle: Size answers LIVE
// from the in-memory catalog under the video's lock (so a repair is
// always judged against the GOP's current expected bytes — a rewrite
// landing mid-scrub can never have its fresh copies overwritten from a
// stale source), while All snapshots every known address for the
// total-loss enumeration. Duplicate GOPs are excluded: their bytes live
// at the target address and they own no file for the scrub to check.
func (s *Store) sizeOracle() storage.SizeOracle { return liveOracle{s} }

type liveOracle struct{ s *Store }

// Size reports the catalog's current expected size of one GOP.
func (o liveOracle) Size(a storage.GOPAddr) (int64, bool) {
	vs := o.s.acquire(a.Video)
	if vs == nil {
		return 0, false
	}
	defer vs.mu.Unlock()
	for _, p := range vs.phys {
		if p.Dir != a.PhysDir {
			continue
		}
		for i := range p.GOPs {
			if g := &p.GOPs[i]; g.Seq == a.Seq {
				if g.DupOf != nil {
					return 0, false
				}
				return g.Bytes, true
			}
		}
		return 0, false
	}
	return 0, false
}

// All snapshots every catalog-known GOP's expected size, locking one
// video at a time so the walk never stalls store-wide traffic.
func (o liveOracle) All() map[storage.GOPAddr]int64 {
	want := make(map[storage.GOPAddr]int64)
	for _, name := range o.s.videoNames() {
		vs := o.s.acquire(name)
		if vs == nil {
			continue // deleted while we iterated
		}
		for _, p := range vs.phys {
			for i := range p.GOPs {
				if g := &p.GOPs[i]; g.DupOf == nil {
					want[storage.GOPAddr{Video: name, PhysDir: p.Dir, Seq: g.Seq}] = g.Bytes
				}
			}
		}
		vs.mu.Unlock()
	}
	return want
}

// Pipeline exposes the store's per-stage latency histograms for the
// serving layer's /metrics pipeline section.
func (s *Store) Pipeline() *obs.Pipeline { return s.pipe }

// readGOP fetches one stored GOP's bytes, passing the catalog's
// expected size so a replicated backend can fail over past a replica
// whose copy is stale (a rewrite that missed its shard) instead of
// serving bytes the caller will reject. want < 0 means no expectation.
// ctx reaches network-backed backends (cancellation, trace header); the
// fetch is timed into the pipeline's fetch stage and any trace on ctx.
func (s *Store) readGOP(ctx context.Context, video, physDir string, seq int, want int64) ([]byte, error) {
	start := time.Now()
	data, err := s.files.ReadGOPExpectContext(ctx, video, physDir, seq, want)
	obs.Observe(ctx, s.pipe, obs.StageFetch, time.Since(start))
	return data, err
}

// load hydrates the in-memory metadata cache from the catalog. It runs
// before the store is published, so no locking is needed.
func (s *Store) load() error {
	// Finish any deletion that crashed mid-teardown (see Delete): the
	// tombstone means the video's files may already be partially gone, so
	// the catalog rows must not be trusted.
	for _, name := range s.cat.Keys("deleting") {
		if err := s.teardownVideo(name, nil); err != nil {
			return err
		}
	}
	for _, name := range s.cat.Keys("videos") {
		var v VideoMeta
		if _, err := s.cat.Get("videos", name, &v); err != nil {
			return err
		}
		s.videos[name] = &videoState{meta: &v, phys: make(map[int]*PhysMeta)}
	}
	for _, key := range s.cat.Keys("phys") {
		var p PhysMeta
		if _, err := s.cat.Get("phys", key, &p); err != nil {
			return err
		}
		// Key layout is "<video>/<id>"; the video name may itself contain
		// any character except the path separator, so split on the final
		// slash.
		i := strings.LastIndexByte(key, '/')
		if i < 0 {
			return fmt.Errorf("core: bad phys key %q: missing video/id separator", key)
		}
		video := key[:i]
		id, err := strconv.Atoi(key[i+1:])
		if err != nil {
			return fmt.Errorf("core: bad phys key %q: %v", key, err)
		}
		vs := s.videos[video]
		if vs == nil {
			// Orphaned physical record (video deleted mid-crash): drop the
			// catalog row AND its GOP directory, or the crash leaks the
			// orphan's disk space forever (no later operation ever visits a
			// physical video that is not in the catalog). Cleanup is
			// best-effort — a degraded shard must not make the whole store
			// unopenable — so on failure the row is KEPT and the reclaim
			// retries on the next (healthy) open.
			if err := s.files.DeletePhysical(video, p.Dir); err == nil {
				s.cat.Delete("phys", key)
			}
			continue
		}
		vs.phys[id] = &p
	}
	return nil
}

// lookup returns the registry entry for a name (unlocked), or nil.
func (s *Store) lookup(name string) *videoState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.videos[name]
}

// acquire locks the named video's state and returns it, or nil if the
// video does not exist. The registry identity is rechecked after locking
// so a concurrent Delete (or delete+recreate) cannot hand out a stale
// state. Callers must vs.mu.Unlock() when done.
func (s *Store) acquire(name string) *videoState {
	for {
		vs := s.lookup(name)
		if vs == nil {
			return nil
		}
		vs.mu.Lock()
		if s.lookup(name) == vs {
			return vs
		}
		vs.mu.Unlock()
	}
}

// acquireSet locks the named videos in sorted order, returning a map of
// the states it locked. Videos that do not exist are absent from the
// result (callers decide whether that is an error). Sorted acquisition is
// the global lock order; every multi-video operation must go through this
// helper to stay deadlock-free.
func (s *Store) acquireSet(names map[string]bool) map[string]*videoState {
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	held := make(map[string]*videoState, len(sorted))
	for _, n := range sorted {
		if vs := s.acquire(n); vs != nil {
			held[n] = vs
		}
	}
	return held
}

// releaseSet unlocks every state in a set returned by acquireSet.
func (s *Store) releaseSet(held map[string]*videoState) {
	for _, vs := range held {
		vs.mu.Unlock()
	}
}

// Close flushes metadata and closes the store. In-flight operations on
// other goroutines fail once the catalog is closed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat.Close()
}

// Create registers a new logical video. budgetBytes of 0 applies the
// default multiple-of-original budget once the first write lands; a
// negative value means unlimited. Safe for concurrent use.
func (s *Store) Create(name string, budgetBytes int64) error {
	if name == "" || name != filepath.Base(name) || name[0] == '.' {
		return fmt.Errorf("core: invalid video name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.videos[name]; ok {
		return ErrExists
	}
	v := &VideoMeta{Name: name, Budget: budgetBytes, Original: -1}
	if err := s.cat.Put("videos", name, v); err != nil {
		return err
	}
	s.videos[name] = &videoState{meta: v, phys: make(map[int]*PhysMeta)}
	return nil
}

// Delete removes a logical video and all physical data. It takes the
// video's lock first (waiting out in-flight operations), writes a
// catalog tombstone, tears down files then catalog rows, and unregisters
// the name only after teardown completes. Consequences:
//
//   - Concurrent operations observe either the full video or ErrNotFound,
//     and a concurrent Create of the same name gets ErrExists until the
//     old data is fully gone (it can never adopt, then lose, the dying
//     video's directory).
//   - A crash mid-teardown is self-healing: load() finishes any deletion
//     whose tombstone survives, so the catalog never describes GOP files
//     that are gone.
func (s *Store) Delete(name string) error {
	vs := s.acquire(name)
	if vs == nil {
		return ErrNotFound
	}
	defer vs.mu.Unlock()
	if err := s.cat.Put("deleting", name, true); err != nil {
		return err
	}
	vs.gone.Store(true)
	if err := s.teardownVideo(name, vs.phys); err != nil {
		return err
	}
	// Unregister last: waiters blocked on vs.mu recheck registry identity
	// after we release and report ErrNotFound.
	s.mu.Lock()
	delete(s.videos, name)
	s.mu.Unlock()
	return nil
}

// teardownVideo removes a video's files, catalog rows, and tombstone, in
// that order. Called by Delete and by load's crash recovery.
func (s *Store) teardownVideo(name string, phys map[int]*PhysMeta) error {
	if err := s.files.DeleteVideo(name); err != nil {
		return err
	}
	if phys != nil {
		for id := range phys {
			if err := s.cat.Delete("phys", physKey(name, id)); err != nil {
				return err
			}
		}
	} else {
		// Recovery path: sweep every phys row prefixed by the video name.
		for _, key := range s.cat.Keys("phys") {
			if i := strings.LastIndexByte(key, '/'); i >= 0 && key[:i] == name {
				if err := s.cat.Delete("phys", key); err != nil {
					return err
				}
			}
		}
	}
	if err := s.cat.Delete("videos", name); err != nil {
		return err
	}
	return s.cat.Delete("deleting", name)
}

// Videos lists the logical videos in the store.
func (s *Store) Videos() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.videos))
	for name := range s.videos {
		out = append(out, name)
	}
	return out
}

// videoNames snapshots the registry (sorted) for iteration without
// holding any lock across per-video work.
func (s *Store) videoNames() []string {
	names := s.Videos()
	sort.Strings(names)
	return names
}

// Info returns a copy of the video's metadata and its physical views.
func (s *Store) Info(name string) (VideoMeta, []PhysMeta, error) {
	vs := s.acquire(name)
	if vs == nil {
		return VideoMeta{}, nil, ErrNotFound
	}
	defer vs.mu.Unlock()
	var phys []PhysMeta
	for _, p := range vs.phys {
		cp := *p
		cp.GOPs = append([]GOPMeta(nil), p.GOPs...)
		phys = append(phys, cp)
	}
	return *vs.meta, phys, nil
}

// TotalBytes returns the stored size of a logical video per the catalog.
func (s *Store) TotalBytes(name string) (int64, error) {
	vs := s.acquire(name)
	if vs == nil {
		return 0, ErrNotFound
	}
	defer vs.mu.Unlock()
	return vs.totalBytes(), nil
}

// savePhys persists a physical video record. Caller holds the video lock.
func (s *Store) savePhys(video string, p *PhysMeta) error {
	return s.cat.Put("phys", physKey(video, p.ID), p)
}

// saveVideo persists a video record. Caller holds the video lock.
func (s *Store) saveVideo(v *VideoMeta) error {
	return s.cat.Put("videos", v.Name, v)
}

// tick advances and returns the video's LRU clock. Caller holds the video
// lock.
func (s *Store) tick(v *VideoMeta) int64 {
	v.Clock++
	return v.Clock
}

// allocPhys reserves the next physical-video ID. Caller holds the video
// lock.
func (s *Store) allocPhys(v *VideoMeta) int {
	id := v.NextPhys
	v.NextPhys++
	return id
}

// Estimator exposes the MBPP->PSNR estimator (for tests and experiments).
func (s *Store) Estimator() *quality.Estimator { return s.est }

// resolveRefIn resolves a GOPRef against a held lock set. Returns
// errVideosNeeded when the target video's lock is not held.
func resolveRefIn(held map[string]*videoState, ref GOPRef) (*videoState, *PhysMeta, *GOPMeta, error) {
	vs := held[ref.Video]
	if vs == nil {
		return nil, nil, nil, errVideosNeeded{names: []string{ref.Video}}
	}
	p := vs.byID(ref.Phys)
	if p == nil {
		return nil, nil, nil, fmt.Errorf("%w: phys %d of %s", errDanglingRef, ref.Phys, ref.Video)
	}
	for i := range p.GOPs {
		if p.GOPs[i].Seq == ref.Seq {
			return vs, p, &p.GOPs[i], nil
		}
	}
	return nil, nil, nil, fmt.Errorf("%w: seq %d of %s/%d", errDanglingRef, ref.Seq, ref.Video, ref.Phys)
}

// runJobs executes n tasks on the store's bounded worker pool and returns
// the accumulated errors. It must be called WITHOUT any video lock held:
// tasks are CPU-bound and may outnumber pool slots. At most
// min(n, Workers) goroutines are spawned, pulling task indices from a
// shared counter; the semaphore is re-acquired per task so concurrent
// callers interleave fairly on the pool rather than running to completion
// one at a time.
//
// Cancellation is first-error-wins: each worker checks ctx before
// claiming its next task and while waiting for a slot, so a cancelled
// caller stops consuming CPU at the next task boundary (an in-flight task
// finishes, then the worker exits). The context's cause is folded into
// the returned error alongside any task errors that already occurred.
func (s *Store) runJobs(ctx context.Context, n int, run func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := cap(s.workSem)
	if workers > n {
		workers = n
	}
	errs := make([]error, n+1)
	var next atomic.Int64
	var bailed atomic.Bool // some worker abandoned tasks due to cancellation
	var wg sync.WaitGroup
	done := ctx.Done() // nil for a non-cancellable context: never ready
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					bailed.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				select {
				case s.workSem <- struct{}{}:
				case <-done:
					bailed.Store(true)
					return
				}
				errs[i] = run(i)
				<-s.workSem
			}
		}()
	}
	wg.Wait()
	if bailed.Load() {
		errs[n] = context.Cause(ctx) // recorded once, not per worker
	}
	return errors.Join(errs...)
}

// effectiveQuality returns the encode quality preset for a spec.
func effectiveQuality(q int) int {
	if q <= 0 {
		return codec.DefaultQuality
	}
	return q
}
