package storage

// Backend is the physical GOP store abstraction. The paper's layout —
// one directory per logical video, one physical-video subdirectory per
// materialized view, one file per GOP — is a *logical* addressing scheme
// (video, physDir, seq); a Backend decides where those GOPs physically
// live. Four implementations ship:
//
//   - Store (localfs): one filesystem root, the paper's Figure 2 layout.
//   - Mem: an in-memory map, for tests and IO-free benchmarking.
//   - Remote: GOPs stored on one vssd node over the wire protocol
//     (remote.go).
//   - Ring: N member backends with GOPs placed by a stable hash of
//     (video, physDir, seq), optionally R-way replicated (primary + ring
//     successors) with read failover, a write-repair journal and
//     scrub-repair; per-member IO runs in parallel and a degraded member
//     surfaces errors per GOP — or, with replicas, not at all while a
//     healthy copy survives. Over localfs roots it is the "sharded"
//     backend (OpenSharded); over Remotes, internal/router's "cluster".
//
// Every implementation must be safe for concurrent use and must report
// missing GOPs with errors that match errors.Is(err, fs.ErrNotExist), so
// callers can distinguish "evicted under me" races from real IO failures.
type Backend interface {
	// Name identifies the backend kind ("localfs", "sharded", "mem") for
	// metrics and operational labels.
	Name() string
	// WriteGOP atomically writes one GOP: readers never observe a torn
	// GOP, and concurrent writers of the same (video, physDir, seq) leave
	// one complete winner.
	WriteGOP(video, physDir string, seq int, data []byte) error
	// ReadGOP reads one GOP's bytes.
	ReadGOP(video, physDir string, seq int) ([]byte, error)
	// GOPSize returns the stored size of one GOP.
	GOPSize(video, physDir string, seq int) (int64, error)
	// DeleteGOP removes one GOP. Missing GOPs are not an error: eviction
	// and crash recovery may race.
	DeleteGOP(video, physDir string, seq int) error
	// LinkGOP makes dst share src's bytes — a hard link where the backend
	// supports it (compaction's zero-copy merge, Section 5.3), a copy
	// otherwise. Deleting src afterwards must not disturb dst.
	LinkGOP(video, srcDir string, srcSeq int, dstVideo, dstDir string, dstSeq int) error
	// DeletePhysical removes one physical video and all of its GOPs.
	DeletePhysical(video, physDir string) error
	// DeleteVideo removes a logical video's data entirely.
	DeleteVideo(video string) error
	// Walk visits every stored GOP. Order is unspecified; fn errors abort
	// the walk.
	Walk(fn func(video, physDir string, seq int, size int64) error) error
}
