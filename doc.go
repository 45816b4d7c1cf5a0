// Package repro is a from-scratch, stdlib-only Go reproduction of
// "VSS: A Storage System for Video Analytics" (SIGMOD 2021).
//
// The public API lives in repro/vss; the storage manager in
// internal/core; substrates (codec, vision, clustering, solver, catalog,
// storage, indexes, cost and quality models) under internal/. See
// README.md for the system overview, quickstart, and benchmark;
// docs/ARCHITECTURE.md for the paper-section → package map and the
// locking/pipeline invariants; docs/WIRE.md for the normative wire
// protocol (video plane and GOP storage plane); docs/CLUSTER.md for
// running a multi-node fleet; docs/METRICS.md for the vssd /metrics
// reference; and examples/README.md for the example index. cmd/vssbench
// runs the paper's evaluation experiments; benchmark/ holds the workloads
// a change is measured against.
//
// # Concurrency
//
// The storage manager is safe for concurrent use and built for it: VSS
// sits beneath a video DBMS serving many camera streams and readers at
// once. Locking is two-tier — a short-lived store-wide registry lock
// guards only the catalog of logical videos, while each video carries its
// own lock, so operations on different videos (reads, writes, eviction,
// deferred compression, compaction) proceed fully in parallel and
// background maintenance never blocks foreground traffic on other videos.
// Within a single read, plan selection and cache admission run under the
// video's lock but the CPU-heavy GOP decode/convert/encode pipeline fans
// out on a bounded worker pool (vss.Options.Workers, default GOMAXPROCS)
// with no locks held. Cross-video operations — joint compression and
// reads that traverse duplicate/joint GOP references — acquire the
// involved video locks in sorted name order, which keeps the system
// deadlock-free. See internal/core/store.go for the full contract.
//
// Ingest is pipelined the same way: every streaming Writer hands each
// GOP — complete ones from Append, the trailing partial one from Flush —
// to a pool of Options.Workers encode workers (sharing the same
// store-wide CPU budget as reads) and commits encoded GOPs strictly in
// append order through a sequenced commit queue, so a single camera
// stream compresses on every core while readers still only ever observe
// a durable prefix of the appended frames. At most 2*Options.Workers GOPs
// buffer in the pipeline before Append blocks; encode or commit errors
// surface — first in append order, deterministically — on a later Append
// or on Flush/Close, which drain the pipeline. Bulk ingest through WriteEncoded
// validates outside the video lock and commits in bounded chunks so it
// cannot starve concurrent readers of the same video. See
// internal/core/writer.go for the engine.
//
// # Serving
//
// The serving layer exposes the store over the network. Two pieces
// compose it:
//
// First, a streaming read path in the core (vss.System.ReadStream,
// internal/core/stream.go): the same plan/snapshot phase as Read, but
// output units — encoded GOPs for compressed reads, frame batches for raw
// — are yielded in order as the parallel decode pipeline produces them,
// with decode memory bounded by a small look-ahead window instead of the
// full ReadResult (passthrough bytes are still snapshotted up front; see
// internal/core/stream.go for the exact contract). context.Context is plumbed through both ReadStream and
// ReadContext, so a cancelled read stops decoding at the next GOP
// boundary. Streamed bytes are identical to what Read returns, because
// Read is a drain of the same stream; the trade is that raw streaming
// reads never cache-admit their result.
//
// Second, the vssd daemon (cmd/vssd, internal/server): HTTP endpoints for
// create/delete/stat/ls, GOP-level encoded writes, and streaming reads
// whose responses are chunk-framed and flushed as the pipeline produces
// them — a disconnected client cancels its in-flight decode work. Around
// the store it adds the production-shape concerns the library cannot
// express: an admission controller bounding in-flight reads with a
// bounded wait queue and per-client limits (429 beyond them), a
// byte-bounded LRU of hot encoded responses invalidated on writes, and a
// /metrics endpoint surfacing read statistics, cache hit rates, queue
// depths, per-video deferred-compression levels, and storage-backend
// counters. See examples/serving for an end-to-end walkthrough and
// internal/server's package comment for the endpoint and wire-format
// reference.
//
// # Storage layout and backends
//
// The physical layer follows Figure 2 of the paper — one directory per
// logical video, one subdirectory per physical video (materialized
// view), one file per GOP, written atomically and hard-linked for
// compaction — but the layout is addressed logically as (video,
// physical-video dir, sequence) behind the storage.Backend interface
// (internal/storage), so where GOPs physically live is pluggable
// (vss.Options.Backend):
//
//   - localfs (default): a single root under <store>/data.
//   - sharded: N roots with each GOP placed by a stable hash of its
//     address — one root per disk spreads IO, per-shard operations run
//     in parallel, and a degraded shard fails per GOP instead of
//     store-wide. vssd/vssctl select it with -shards N (conventional
//     roots under the store directory) or -shard-roots for explicit,
//     order-stable disk paths. With -replicas R every GOP lives on R
//     distinct roots (primary + ring successors): writes fan out with
//     first-success durability, reads fail over past degraded roots
//     (repeat offenders demote to last resort), and the maintenance
//     pass scrubs placements, re-copying missing or stale replicas from
//     a healthy copy with the catalog as the size oracle — so losing a
//     disk is a slowdown, not an outage, and replication converges back
//     to R on its own.
//   - mem: in-memory, for tests and IO-free benchmarks; CI re-runs the
//     core suite against it (VSS_BACKEND=mem) to enforce backend parity.
//   - remote: one vssd node reached over the wire protocol's GOP
//     storage plane (docs/WIRE.md), with retry-and-backoff on transport
//     errors and 5xx — never on 4xx. internal/router composes N remotes
//     into a cluster backend (hash-ring placement, replica fan-out,
//     read failover, a write-repair journal, and the same scrub engine
//     as sharded), which vssd -nodes serves as a stateless scale-out
//     front end; see docs/CLUSTER.md.
//
// The metadata catalog always stays on the local filesystem under
// <store>/catalog. On the read side, GOP bytes are fetched by an
// asynchronous IO-prefetch stage that runs ahead of the decode workers
// with a bounded look-ahead window (2*Workers), overlapping backend or
// shard IO with decode for both batch and streaming reads. A read pins
// the GOPs it planned until it has fetched them, and maintenance
// (eviction, deferred and joint compression, compaction) leaves pinned
// GOPs for a later pass, so a read plans once and never retries. See
// examples/sharded for a multi-root walkthrough.
package repro
