// Package vss is the public API of the VSS video storage system, a
// reproduction of "VSS: A Storage System for Video Analytics" (SIGMOD
// 2021). VSS is a storage manager designed to sit beneath a video DBMS or
// video processing application: callers create, write, read, and delete
// logical videos (Figure 1 of the paper), while VSS transparently manages
// GOP-granular physical layout, a cache of materialized views in multiple
// resolutions and codecs, solver-based minimal-cost read planning, joint
// compression of overlapping camera streams, deferred lossless
// compression, and compaction.
//
// Quickstart:
//
//	sys, _ := vss.Open(dir, vss.Options{})
//	defer sys.Close()
//	sys.Create("traffic", 0)
//	sys.Write("traffic", vss.WriteSpec{FPS: 30, Codec: vss.H264}, frames)
//	res, _ := sys.Read("traffic", vss.ReadSpec{
//	    S: vss.Spatial{Width: 960, Height: 540},
//	    T: vss.Temporal{Start: 20, End: 80},
//	    P: vss.Physical{Codec: vss.HEVC},
//	})
//
// # Concurrency
//
// A System is safe for concurrent use by multiple goroutines. Locking is
// per logical video: operations on different videos — Read, Write,
// WriteEncoded, Compact, Maintain, Delete — run fully in parallel, and
// operations on the same video serialize only around metadata; the
// CPU-heavy decode/convert/encode work of a Read executes outside any
// lock on a bounded worker pool (Options.Workers, default GOMAXPROCS).
// The practical contract:
//
//   - Any number of goroutines may call any System method concurrently,
//     including on the same video. Reads of a video being written see a
//     consistent prefix (whole GOPs).
//   - A read racing a Delete of its video either returns complete data
//     or ErrNotFound, never a partial result.
//   - Background maintenance (Maintain, StartBackground, JointCompress)
//     locks one video — or, for joint compression, one video pair — at a
//     time, so it never stalls traffic on other videos.
//   - A Writer handle is the one exception: it buffers frames internally
//     and must be confined to a single goroutine. Open one Writer per
//     producer; concurrent Writers on the same video are safe relative
//     to each other and to readers.
//
// # Pipelined ingest
//
// Within a single Writer, ingest itself is parallel: Append hands each
// completed GOP to a pool of Options.Workers encode workers and returns
// without waiting for compression, so a one-camera stream ingests at
// multi-core speed. Every Writer runs this one pipeline, started on the
// first GOP it encodes. Its contract:
//
//   - Ordering: encoded GOPs commit strictly in append order, so readers
//     only ever observe a durable prefix of the appended frames.
//   - Bounded memory: at most 2*Options.Workers GOPs are in flight —
//     encoding or awaiting commit — before Append blocks for
//     backpressure.
//   - Errors: because encoding is asynchronous, an encode or commit
//     failure may surface on a later Append or on Flush/Close, which
//     drain the pipeline and deterministically report the first error in
//     append order; the writer is then poisoned and GOPs after the
//     failure point are never committed.
//   - Flush sends any partial GOP through the same pipeline and drains
//     it: when it returns nil, every appended frame is durable and
//     readable. Close does the same, then releases the pipeline's
//     workers.
//   - Frame ownership: the writer borrows appended frames until the next
//     successful Flush (or Close) — complete GOPs are read by encode
//     workers after Append returns. Do not mutate or recycle a frame
//     buffer passed to Append before draining; allocate or Clone a fresh
//     frame per Append instead.
//   - CPU budget: encode work shares the store-wide Options.Workers
//     semaphore with the read pipeline, so writers and readers together
//     never exceed it.
//
// # Streaming reads and serving
//
// ReadStream yields a read's output incrementally — encoded GOPs for
// compressed reads, frame batches for raw reads — in order, as the
// parallel decode pipeline produces them, byte-identical to the batch
// Read. Both ReadStream and ReadContext accept a context.Context;
// cancelling it abandons the remaining decode work at the next GOP
// boundary, so a caller serving a network client stops burning CPU the
// moment the client disconnects. Streaming reads trade cache admission
// for bounded memory: their results are never admitted as materialized
// views.
//
// The vssd daemon (cmd/vssd, internal/server) serves a System over HTTP
// on top of ReadStream, adding admission control (bounded in-flight reads
// with queueing and per-client limits), a hot-response LRU, and live
// /metrics; see examples/serving for a walkthrough.
//
// # Storage backends
//
// The physical GOP store is pluggable behind the Backend interface
// (Options.Backend, or OpenWith). Three implementations ship:
//
//   - NewLocalBackend: one filesystem root, the paper's Figure 2 layout
//     (<root>/<video>/<phys>/<seq>.gop). The default, rooted at
//     <dir>/data.
//   - NewShardedBackend: N filesystem roots with each GOP placed by a
//     stable hash of its (video, physical video, sequence) address —
//     spread load across disks, with per-shard parallel IO and degraded
//     shards surfacing errors per GOP rather than store-wide. Root ORDER
//     is part of the store's identity: reopen with the same roots in the
//     same order (ShardRoots encodes the conventional layout vssd's
//     -shards flag uses).
//   - NewMemBackend: in-memory, for tests and IO-free benchmarking.
//
// # Replication
//
// NewShardedBackend with replicas R > 1 keeps every GOP on R distinct
// shards (its primary plus the R-1 ring successors), turning the sharded
// backend into a replicated store that survives the loss of a root:
//
//   - Writes fan out to all R replicas in parallel; the first success
//     makes the write durable, and shards that missed it are repaired
//     later rather than failing the write.
//   - Reads fail over through the replicas in placement order — past
//     missing copies, and past stale (wrong-sized) copies when the
//     catalog's expected size is known. Per-shard error counters demote
//     a repeatedly-failing (flapping) root to last resort until it
//     serves successfully again.
//   - Maintain runs a scrub pass that walks every placement and
//     re-copies missing or wrong-sized replicas from a healthy copy,
//     using the catalog's expected sizes as ground truth; ScrubStats
//     (checked/repaired/unrecoverable) and per-shard health are exposed
//     via System.ReplicationStats and the "replication" section of vssd
//     /metrics.
//
// Deleting one root's contents with replicas=2 therefore loses nothing:
// every GOP keeps serving from its surviving replica, and the next
// maintenance pass restores full replication. Raising -replicas on an
// existing store is safe (placements only extend); changing the root
// list is not. The vssd and vssctl daemons expose this as -replicas
// alongside -shards/-shard-roots.
//
// The catalog always lives on the local filesystem under <dir>/catalog.
// Whatever the backend, the read path fetches GOP bytes on an
// asynchronous IO-prefetch stage that runs ahead of the decode workers
// (bounded look-ahead, 2*Workers), so backend latency overlaps decode
// compute for both Read and ReadStream; System.BackendStats exposes
// per-backend read/write byte and latency counters (also served by vssd
// /metrics). See examples/sharded for a multi-root walkthrough.
package vss

import (
	"context"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/storage"
)

// Frame is a decoded video frame (see internal/frame for pixel layouts).
type Frame = frame.Frame

// Rect is a pixel rectangle used for regions of interest.
type Rect = frame.Rect

// PixelFormat selects a raw frame layout.
type PixelFormat = frame.PixelFormat

// Raw frame layouts.
const (
	RGB    = frame.RGB
	YUV420 = frame.YUV420
	YUV422 = frame.YUV422
	Gray   = frame.Gray
)

// Codec identifies a compression codec.
type Codec = codec.ID

// Supported codecs. LS is the JPEG-LS-style near-lossless codec: bit-exact
// at quality >= 97, error-bounded below, with no flate on either path. The
// set is open — codecs register with internal/codec's registry, and
// CodecNames reports what this build serves.
const (
	RawCodec = codec.Raw
	H264     = codec.H264
	HEVC     = codec.HEVC
	LS       = codec.LS
)

// CodecNames returns the registered codec names, pipe-joined (for flag
// help strings and error messages).
func CodecNames() string { return codec.Names() }

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int, format PixelFormat) *Frame { return frame.New(w, h, format) }

// Options configure a System; see core.Options for the full set of knobs
// (budget multiple, GOP length, storage backend, the paper's baseline
// toggles, and Workers, which bounds the CPU fan-out of reads and of
// each Writer's encode pipeline).
type Options = core.Options

// Spatial, Temporal, and Physical are the S/T/P parameter groups of the
// VSS API (Figure 1).
type (
	Spatial  = core.Spatial
	Temporal = core.Temporal
	Physical = core.Physical
)

// ReadSpec bundles read parameters; WriteSpec describes a write.
type (
	ReadSpec  = core.ReadSpec
	WriteSpec = core.WriteSpec
)

// ReadResult carries the frames or encoded GOPs a read produced.
type ReadResult = core.ReadResult

// ReadStats reports how a read was executed: plan method and cost, GOPs
// decoded, bytes touched, and whether the result was cache-admitted.
type ReadStats = core.ReadStats

// ReadStream is an in-order iterator over a streaming read's output; see
// System.ReadStream.
type ReadStream = core.ReadStream

// ReadBatch is one unit of a ReadStream: a run of decoded frames (raw
// reads) or one encoded GOP (compressed reads).
type ReadBatch = core.ReadBatch

// Predicate is a content predicate over frames — motion energy,
// detection count, and dominant-color terms combined with and/or. Build
// one with ParsePredicate; see System.ReadWhere.
type Predicate = core.Predicate

// FrameInfo is the per-frame content record predicates evaluate against;
// Detection is one detected vehicle within a frame.
type (
	FrameInfo = core.FrameInfo
	Detection = core.Detection
)

// GOPSummary is the per-GOP feature summary persisted at ingest; the
// predicate planner prunes GOPs whose summary bounds prove a predicate
// false without fetching or decoding them.
type GOPSummary = core.GOPSummary

// Match, QueryResult, QueryStats, QueryStream, and QueryBatch carry
// predicate-read results; see System.ReadWhere and System.ReadStreamWhere.
type (
	Match       = core.Match
	QueryResult = core.QueryResult
	QueryStats  = core.QueryStats
	QueryStream = core.QueryStream
	QueryBatch  = core.QueryBatch
)

// ParsePredicate parses the predicate language ("motion > 2 and count
// >= 1", "color ~ 200,40,40 < 60", ...); see the core package for the
// grammar. For every predicate p it returns, ParsePredicate(p.String())
// reproduces p — the round-trip the wire protocol relies on.
func ParsePredicate(s string) (Predicate, error) { return core.ParsePredicate(s) }

// AnalyzeFrames computes per-frame content records from decoded RGB-
// convertible frames — the same deterministic analysis ingest-time
// summarization and query-time predicate evaluation use, so filtering a
// full read with it reproduces ReadWhere's decisions exactly.
func AnalyzeFrames(frames []*Frame) []FrameInfo { return core.AnalyzeFrames(frames) }

// FrameWindow maps [t0, t1) to the half-open source frame index range
// predicate reads scan at the given frame rate.
func FrameWindow(fps int, t0, t1 float64) (int, int) { return core.FrameWindow(fps, t0, t1) }

// Writer is a streaming write handle; whole GOPs become readable as they
// are appended (non-blocking writes, prefix reads). A Writer must be
// confined to one goroutine, and frames passed to Append are borrowed by
// the ingest pipeline until the next Flush/Close; see the package
// concurrency notes.
type Writer = core.Writer

// MergeMode selects the joint-compression overlap merge function.
type MergeMode = core.MergeMode

// Merge functions for joint compression (Section 5.1 of the paper).
const (
	MergeUnprojected = core.MergeUnprojected
	MergeMean        = core.MergeMean
)

// JointStats summarizes a joint-compression sweep.
type JointStats = core.JointStats

// ErrNotFound and ErrExists are returned for unknown/duplicate videos;
// ErrInvalidSpec marks read parameters that can never be satisfied
// (match with errors.Is to distinguish caller mistakes from storage
// failures).
var (
	ErrNotFound    = core.ErrNotFound
	ErrExists      = core.ErrExists
	ErrInvalidSpec = core.ErrInvalidSpec
)

// Backend is the pluggable physical GOP store; see the package notes on
// storage backends. Implementations must be safe for concurrent use.
type Backend = storage.Backend

// BackendStats snapshots a backend's operation counters: reads/writes,
// bytes moved, and cumulative latency (mean latency = nanos/ops).
type BackendStats = storage.BackendStats

// ReplicationStats snapshots a replicated backend's placement config,
// read-failover count, per-shard health (error counters and demotion
// state), and the most recent scrub pass; see System.ReplicationStats.
type ReplicationStats = storage.ReplicationStats

// ScrubStats reports one scrub-repair pass over the replicated backend:
// addresses checked, replica copies repaired, addresses with no healthy
// source copy (unrecoverable), and orphaned files skipped.
type ScrubStats = storage.ScrubStats

// ShardHealthStats is one shard root's row in ReplicationStats.
type ShardHealthStats = storage.ShardHealthStats

// ClusterStats snapshots a routed vssd fleet's health: per-node errors
// and demotions, read failovers, write-repair journal depth, repair and
// scrub counters; see System.ClusterStats and internal/router.
type ClusterStats = storage.ClusterStats

// NodeHealthStats is one node's row in ClusterStats.
type NodeHealthStats = storage.NodeHealthStats

// BackgroundStats reports the passes of the background loop
// StartBackground runs — Maintain and the write-repair journal drain —
// as PassStats: passes, failures, the last error and the last pass's
// duration; see System.BackgroundStats.
type BackgroundStats = core.BackgroundStats

// PassStats counts one kind of background pass in BackgroundStats.
type PassStats = core.PassStats

// NewLocalBackend opens (creating if necessary) a single-root localfs
// backend — the default physical layout, one directory tree under root.
func NewLocalBackend(root string) (Backend, error) { return storage.Open(root) }

// NewShardedBackend opens (creating if necessary) one localfs root per
// element of roots and places each GOP on replicas distinct shards
// chosen by a stable hash of its address (primary + ring successors).
// replicas <= 1 keeps a single copy; with more, writes fan out (first
// success is durable), reads fail over through the replicas, and
// Maintain's scrub pass repairs missing or stale copies — see the
// package notes on replication. Reopen with the same roots in the same
// order; raising replicas later is safe, reordering roots is not.
func NewShardedBackend(roots []string, replicas int) (Backend, error) {
	return storage.OpenShardedReplicated(roots, replicas)
}

// NewMemBackend returns an empty in-memory backend (contents do not
// survive the process).
func NewMemBackend() Backend { return storage.NewMem() }

// ShardRoots returns the conventional shard root directories for a
// store at dir: <dir>/data-shard0 .. data-shard{n-1}. It is how vssd's
// and vssctl's -shards flag derives roots, so independent processes
// agree on placement for the same count.
func ShardRoots(dir string, n int) []string { return core.ShardRoots(dir, n) }

// System is an open VSS store.
type System struct {
	store *core.Store
}

// Open opens (creating if necessary) a VSS store rooted at dir.
func Open(dir string, opts Options) (*System, error) {
	s, err := core.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &System{store: s}, nil
}

// OpenWith is Open with an explicit storage backend; it is shorthand
// for setting Options.Backend.
func OpenWith(dir string, opts Options, backend Backend) (*System, error) {
	opts.Backend = backend
	return Open(dir, opts)
}

// BackendStats snapshots the storage backend's read/write byte and
// latency counters. Safe for concurrent use.
func (s *System) BackendStats() BackendStats { return s.store.BackendStats() }

// ReplicationStats snapshots replica placement, read-failover, per-shard
// health, and scrub counters when the backend keeps redundant copies
// (NewShardedBackend with replicas > 1 — though any sharded backend
// reports). ok is false for backends with no replication machinery
// (localfs, mem). Safe for concurrent use; also served by vssd /metrics
// as the "replication" section.
func (s *System) ReplicationStats() (ReplicationStats, bool) {
	return s.store.ReplicationStats()
}

// ClusterStats snapshots routed-fleet health when the backend routes
// GOPs across remote vssd nodes (the cluster backend of vssd -nodes):
// per-node errors and demotions, read failovers, write-repair journal
// depth, repair and scrub counters. ok is false for local
// backends. Safe for concurrent use; also served by /metrics as the
// "cluster" section.
func (s *System) ClusterStats() (ClusterStats, bool) { return s.store.ClusterStats() }

// Backend exposes the system's (metrics-instrumented) storage backend —
// the GOP plane vssd serves over its /gops endpoints so a router fleet
// can use this node as a remote replica store.
func (s *System) Backend() Backend { return s.store.Backend() }

// RestoreCatalog rebuilds the metadata catalog of a (closed) store at
// dir from the snapshot a Maintain pass replicated into backend; see
// Options.SnapshotCatalog. force overwrites an existing catalog.
func RestoreCatalog(dir string, backend Backend, force bool) error {
	return core.RestoreCatalog(dir, backend, force)
}

// Close flushes metadata and closes the store.
func (s *System) Close() error { return s.store.Close() }

// Create registers a logical video. budgetBytes 0 applies the default
// budget (a multiple of the originally written size); negative is
// unlimited.
func (s *System) Create(name string, budgetBytes int64) error {
	return s.store.Create(name, budgetBytes)
}

// Delete removes a logical video and all of its physical data.
func (s *System) Delete(name string) error { return s.store.Delete(name) }

// Write stores frames as (or appended to) the video's original physical
// representation.
func (s *System) Write(name string, spec WriteSpec, frames []*Frame) error {
	return s.store.Write(name, spec, frames)
}

// WriteEncoded ingests already-compressed GOP bitstreams as-is.
func (s *System) WriteEncoded(name string, fps int, gops [][]byte) error {
	return s.store.WriteEncoded(name, fps, gops)
}

// OpenWriter starts a streaming write; frames become readable GOP by GOP.
// Ingest is pipelined: Options.Workers encode workers per Writer.
func (s *System) OpenWriter(name string, spec WriteSpec) (*Writer, error) {
	return s.store.OpenWriter(name, spec)
}

// Read executes a read with spatial, temporal, and physical parameters,
// automatically selecting the cheapest combination of cached materialized
// views to answer it.
func (s *System) Read(name string, spec ReadSpec) (*ReadResult, error) {
	return s.store.Read(name, spec)
}

// ReadContext is Read with cancellation: when ctx is cancelled the read's
// remaining decode work is abandoned at the next GOP boundary and the
// context's error is returned.
func (s *System) ReadContext(ctx context.Context, name string, spec ReadSpec) (*ReadResult, error) {
	return s.store.ReadContext(ctx, name, spec)
}

// ReadStream begins a streaming read: planning runs synchronously, then
// output units — encoded GOPs for compressed reads, frame batches for raw
// reads — arrive from the returned stream's Next in order, as the parallel
// decode pipeline produces them, byte-identical to what Read would have
// returned all at once. Cancelling ctx (or calling Close) stops the
// remaining decode work; raw streaming reads never cache-admit their
// result.
// This is the read path the vssd serving daemon uses so a disconnected
// client stops consuming CPU.
func (s *System) ReadStream(ctx context.Context, name string, spec ReadSpec) (*ReadStream, error) {
	return s.store.ReadStream(ctx, name, spec)
}

// ReadWhere scans [t0, t1) of a video's original frames (t1 <= 0 means
// the end) and returns those matching pred, consulting the temporal
// index and the per-GOP summaries so GOPs that provably cannot match are
// never fetched or decoded. Matches carry RGB frames at source
// resolution, byte-identical to a full raw RGB read filtered with
// AnalyzeFrames. Safe for concurrent use.
func (s *System) ReadWhere(ctx context.Context, name string, pred Predicate, t0, t1 float64) (*QueryResult, error) {
	return s.store.ReadWhereContext(ctx, name, pred, t0, t1)
}

// ReadStreamWhere is ReadWhere with streaming delivery: Next yields the
// matches of one decoded GOP at a time while later candidates prefetch
// and decode ahead. Drain to io.EOF or Close the stream.
func (s *System) ReadStreamWhere(ctx context.Context, name string, pred Predicate, t0, t1 float64) (*QueryStream, error) {
	return s.store.ReadStreamWhere(ctx, name, pred, t0, t1)
}

// DeferredLevel reports the deferred-compression level the maintenance
// controller would apply to the video right now; 0 means inactive. Exposed
// for operational metrics (the vssd /metrics endpoint).
func (s *System) DeferredLevel(name string) int { return s.store.DeferredLevel(name) }

// Videos lists the logical videos in the store.
func (s *System) Videos() []string { return s.store.Videos() }

// TotalBytes reports the stored size of a video across all of its
// physical representations.
func (s *System) TotalBytes(name string) (int64, error) { return s.store.TotalBytes(name) }

// JointCompress runs joint-compression discovery and compression across
// all videos in the store (Section 5.1).
func (s *System) JointCompress(merge MergeMode) (JointStats, error) {
	return s.store.JointCompressAll(merge)
}

// Compact merges contiguous same-configuration cached views of a video
// (Section 5.3), returning the number of merges.
func (s *System) Compact(name string) (int, error) { return s.store.CompactVideo(name) }

// Maintain runs one pass of background maintenance (deferred compression
// and compaction) across all videos.
func (s *System) Maintain() error { return s.store.Maintain() }

// StartBackground runs Maintain every interval (never when interval <=
// 0) and, when the backend keeps two or more copies of each GOP, drains
// the write-repair journal every five seconds, until the returned stop
// function is called. stop returns after any in-flight pass, so Close
// may follow it directly.
func (s *System) StartBackground(interval time.Duration) (stop func()) {
	return s.store.StartBackground(interval)
}

// BackgroundStats snapshots the background loop's pass counters. Safe
// for concurrent use; also served by vssd /metrics as the "background"
// section.
func (s *System) BackgroundStats() BackgroundStats { return s.store.BackgroundStats() }

// Store exposes the underlying storage manager for experiments and
// advanced integrations (e.g. the benchmark harness).
func (s *System) Store() *core.Store { return s.store }
