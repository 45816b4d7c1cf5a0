package storage

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Ring is the one replicated Backend: it distributes GOPs across N
// member backends by a stable hash of the GOP's logical address (video,
// physDir, seq), keeping R replicas of every GOP on R distinct members.
// What a member IS does not matter to the ring — localfs roots make it
// the sharded backend (OpenSharded), storage.Remote nodes make it the
// router's cluster (internal/router) — so placement, health, failover,
// the write-repair journal and scrub exist exactly once.
//
// Each GOP lives on its primary member plus the R-1 ring successors:
//
//   - Writes fan out to every replica in parallel. The FIRST success
//     makes the write durable; members that miss the write are journaled
//     (journal.go) and repaired by the next Repair pass, then — for
//     anything the journal forgot — by the next scrub. A briefly
//     degraded member costs latency on its GOPs, not data.
//   - Reads (all ReadGOP* variants, GOPSize) fail over through the
//     replicas in placement order. Every per-member failure feeds an
//     error counter; a member failing demoteAfter times in a row is
//     demoted to last resort in the failover order until an operation
//     against it succeeds again, so a flapping member stops taxing every
//     read that hashes to it.
//   - Scrub walks all placements and re-copies missing or wrong-sized
//     replicas from a healthy copy (scrub.go), restoring full
//     replication after a member is wiped or replaced.
//
// Which members hold a GOP is a pure function of its address and the
// member list, never of write order, so any process that builds the
// same ring sees the same placement; the ring holds no durable state of
// its own. Growing replicas on an existing ring is safe: the R
// placements extend the R-1 placements, so existing GOPs stay readable
// and the first scrub backfills the new copies. Changing the number or
// order of members is NOT safe — the member list is part of the store's
// identity.
//
// Failure model: with R = 1 a degraded member surfaces errors only on
// operations whose GOPs hash to it. With R > 1 those operations keep
// working too, served by the surviving replicas. Whole-video operations
// (DeletePhysical, DeleteVideo, SweepTemps, Walk) touch every member
// and join errors.
type Ring struct {
	name     string
	members  []Backend
	labels   []string // member identities for health rows and error tags
	replicas int

	health    []memberHealth
	failovers atomic.Int64
	journal   *journal

	repairMu       sync.Mutex // serializes Repair passes
	repairCycles   atomic.Int64
	repaired       atomic.Int64
	repairFailures atomic.Int64

	scrubMu   sync.Mutex
	scrubs    int64
	lastScrub ScrubStats
}

// memberHealth tracks one member's failure counters. errors is
// cumulative (operational metrics); streak counts consecutive failures
// and resets on any success — it drives read-order demotion.
type memberHealth struct {
	errors atomic.Int64
	streak atomic.Int64
}

// demoteAfter is the consecutive-failure streak at which a member is
// demoted to last resort in the read failover order. One success
// re-promotes it, so a recovered member returns to service without
// operator action.
const demoteAfter = 3

// NewRing builds a ring named name (the Backend kind it reports) over
// members, keeping replicas copies of every GOP. labels identify the
// members in health rows and error tags and must match members in
// length. replicas < 1 means 1; replicas must not exceed the number of
// members.
func NewRing(name string, members []Backend, labels []string, replicas int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("storage: %s backend needs at least one member", name)
	}
	if len(labels) != len(members) {
		return nil, fmt.Errorf("storage: %d labels for %d %s members", len(labels), len(members), name)
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(members) {
		return nil, fmt.Errorf("storage: %d replicas need %d distinct %s members, have %d", replicas, replicas, name, len(members))
	}
	return &Ring{
		name:     name,
		members:  members,
		labels:   labels,
		replicas: replicas,
		health:   make([]memberHealth, len(members)),
		journal:  newJournal(),
	}, nil
}

// Name identifies the backend kind.
func (r *Ring) Name() string { return r.name }

// Members returns the number of members in the ring.
func (r *Ring) Members() int { return len(r.members) }

// Replicas returns the number of copies kept of every GOP.
func (r *Ring) Replicas() int { return r.replicas }

// placement maps a GOP address to the members that hold its replicas:
// the primary (a stable FNV-1a hash of the address) followed by its
// ring successors. The R = 1 placement is a prefix of every larger R's,
// which is what makes raising replicas on an existing store safe.
func (r *Ring) placement(video, physDir string, seq int) []int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s\x00%s\x00%d", video, physDir, seq)
	first := int(h.Sum32() % uint32(len(r.members)))
	p := make([]int, r.replicas)
	for i := range p {
		p[i] = (first + i) % len(r.members)
	}
	return p
}

// demoted reports whether member i currently sits at the back of the
// read failover order.
func (r *Ring) demoted(i int) bool { return r.health[i].streak.Load() >= demoteAfter }

// readOrder returns the placement reordered for failover: healthy
// members in placement order first, demoted members last.
func (r *Ring) readOrder(p []int) []int {
	if len(p) == 1 {
		return p
	}
	order := make([]int, 0, len(p))
	var demoted []int
	for _, i := range p {
		if r.demoted(i) {
			demoted = append(demoted, i)
		} else {
			order = append(order, i)
		}
	}
	return append(order, demoted...)
}

// note folds one member operation's outcome into its health counters; a
// success re-promotes a demoted member.
func (r *Ring) note(i int, err error) {
	if err == nil {
		r.health[i].streak.Store(0)
		return
	}
	r.health[i].errors.Add(1)
	r.health[i].streak.Add(1)
}

// memberErr tags an error with the label of the member it came from, so
// a degraded member is identifiable per GOP. The chain (fs.ErrNotExist
// etc.) is preserved for errors.Is.
func (r *Ring) memberErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", r.labels[i], err)
}

// WriteGOP fans the write out to every replica in parallel. The first
// success makes the write durable; members that missed the write are
// charged an error and journaled for the next Repair pass. Only when
// every replica fails does the write itself fail — and then nothing is
// journaled, because no copy exists to repair from.
func (r *Ring) WriteGOP(video, physDir string, seq int, data []byte) error {
	p := r.placement(video, physDir, seq)
	if len(p) == 1 {
		i := p[0]
		err := r.members[i].WriteGOP(video, physDir, seq, data)
		r.note(i, err)
		return r.memberErr(i, err)
	}
	errs := make([]error, len(p))
	var wg sync.WaitGroup
	for k, i := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.members[i].WriteGOP(video, physDir, seq, data)
			r.note(i, err)
			errs[k] = r.memberErr(i, err)
		}()
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == len(p) {
		return errors.Join(errs...)
	}
	if failed > 0 {
		addr := GOPAddr{video, physDir, seq}
		for k, i := range p {
			if errs[k] != nil {
				r.journal.add(addr, i)
			}
		}
	}
	return nil
}

// errWrongSize marks a replica whose copy exists but is not the size
// the caller expects: stale after a rewrite that missed this member.
// Like a missing replica, it is blamed on the member only when another
// replica can actually serve the expected bytes — if every replica
// "mismatches", the caller's expectation is what's stale.
var errWrongSize = errors.New("storage: replica is not the expected size")

// readReplicas runs op against a GOP's replicas in failover order until
// one succeeds. Health accounting distinguishes a degraded replica from
// a genuinely-missing GOP: a fs.ErrNotExist (or wrong-size) result is
// charged to a member only when ANOTHER replica turns out to have the
// bytes (the member is out of sync, and is journaled so the next Repair
// pass restores the copy) — if every replica reports not-exist the GOP
// is simply gone (evicted under a racing read) and nobody is blamed.
// Other failures always count.
//
// When ctx carries a request trace, every failed attempt and every
// off-primary success is recorded as a span on it, so /debug/traces
// shows exactly which members a failover read visited and how long each
// hop cost.
func (r *Ring) readReplicas(ctx context.Context, addr GOPAddr, op func(member int) error) error {
	p := r.placement(addr.Video, addr.PhysDir, addr.Seq)
	if len(p) == 1 {
		i := p[0]
		err := op(i)
		// A plain miss on a replica-less ring is indistinguishable from
		// legitimate eviction; don't poison the health counter.
		if err == nil || !errors.Is(err, fs.ErrNotExist) {
			r.note(i, err)
		}
		return r.memberErr(i, err)
	}
	tr := obs.FromContext(ctx)
	var errs []error
	var missing []int
	for _, i := range r.readOrder(p) {
		var attemptStart time.Time
		if tr != nil {
			attemptStart = time.Now()
		}
		err := op(i)
		if err == nil {
			r.note(i, nil)
			for _, m := range missing {
				r.note(m, errWrongSize) // out of sync: a sibling had the bytes
				r.journal.add(addr, m)
			}
			if i != p[0] {
				r.failovers.Add(1)
				if tr != nil {
					tr.AddSpan(obs.StageFetch, "failover to "+r.labels[i], attemptStart, time.Since(attemptStart), nil)
				}
			}
			return nil
		}
		if tr != nil {
			tr.AddSpan(obs.StageFetch, "fetch "+r.labels[i], attemptStart, time.Since(attemptStart), err)
		}
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, errWrongSize) {
			missing = append(missing, i)
		} else {
			r.note(i, err)
		}
		errs = append(errs, r.memberErr(i, err))
	}
	return errors.Join(errs...)
}

// ReadGOP reads one GOP, failing over through its replicas; see
// readReplicas for the health accounting.
func (r *Ring) ReadGOP(video, physDir string, seq int) ([]byte, error) {
	return r.ReadGOPContext(context.Background(), video, physDir, seq)
}

// ReadGOPContext is ReadGOP with the caller's context flowing to every
// member attempt (trace header on the wire, failover hops recorded as
// spans on the context's trace, remote retries abandoned on cancel).
func (r *Ring) ReadGOPContext(ctx context.Context, video, physDir string, seq int) ([]byte, error) {
	var data []byte
	err := r.readReplicas(ctx, GOPAddr{video, physDir, seq}, func(i int) error {
		var err error
		data, err = ReadGOPCtx(ctx, r.members[i], video, physDir, seq)
		return err
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ReadGOPExpect reads one GOP, failing over past replicas whose copy is
// not the expected size — the copy a rewrite left stale on a member
// that missed the write. If NO replica has the expected size, the
// expectation itself is presumed stale (the GOP was legitimately
// rewritten after the caller snapshotted its metadata) and the read
// falls back to plain failover, so the caller's own staleness handling
// sees the live bytes. want < 0 means no expectation.
func (r *Ring) ReadGOPExpect(video, physDir string, seq int, want int64) ([]byte, error) {
	return r.ReadGOPExpectContext(context.Background(), video, physDir, seq, want)
}

// ReadGOPExpectContext is ReadGOPExpect with the caller's context, as
// ReadGOPContext.
func (r *Ring) ReadGOPExpectContext(ctx context.Context, video, physDir string, seq int, want int64) ([]byte, error) {
	if r.replicas == 1 || want < 0 {
		return r.ReadGOPContext(ctx, video, physDir, seq)
	}
	var data []byte
	err := r.readReplicas(ctx, GOPAddr{video, physDir, seq}, func(i int) error {
		d, err := ReadGOPCtx(ctx, r.members[i], video, physDir, seq)
		if err != nil {
			return err
		}
		if int64(len(d)) != want {
			return fmt.Errorf("%d bytes, want %d: %w", len(d), want, errWrongSize)
		}
		data = d
		return nil
	})
	if err == nil {
		return data, nil
	}
	if errors.Is(err, errWrongSize) {
		return r.ReadGOPContext(ctx, video, physDir, seq)
	}
	return nil, err
}

// GOPSize returns the stored size of one GOP from the first healthy
// replica in failover order.
func (r *Ring) GOPSize(video, physDir string, seq int) (int64, error) {
	var n int64
	err := r.readReplicas(context.Background(), GOPAddr{video, physDir, seq}, func(i int) error {
		var err error
		n, err = r.members[i].GOPSize(video, physDir, seq)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// DeleteGOP removes every replica of one GOP, in REVERSE placement
// order: a concurrent failover read racing the delete then either
// serves the still-present primary or finds every replica gone — it can
// never miss the primary yet hit a successor, which would charge the
// healthy primary a phantom out-of-sync error ("evictions blame
// nobody"). Any pending journal repair is purged first so it cannot
// resurrect the GOP. Missing replicas are not an error (eviction and
// crash recovery may race), but a replica that cannot be removed fails
// the delete — leaving it behind silently would let a later scrub
// resurrect the GOP.
func (r *Ring) DeleteGOP(video, physDir string, seq int) error {
	addr := GOPAddr{video, physDir, seq}
	r.journal.forget(func(a GOPAddr) bool { return a == addr })
	var errs []error
	p := r.placement(video, physDir, seq)
	for k := len(p) - 1; k >= 0; k-- {
		i := p[k]
		err := r.members[i].DeleteGOP(video, physDir, seq)
		r.note(i, err)
		if err != nil {
			errs = append(errs, r.memberErr(i, err))
		}
	}
	return errors.Join(errs...)
}

// LinkGOP makes dst share src's bytes on every dst replica: a
// member-local link where a dst member also holds a src replica (a hard
// link on one filesystem, the node's own link-or-copy over the wire), a
// copy through the ring otherwise. Like WriteGOP, the first replica
// success makes the link durable; failed destinations are journaled.
func (r *Ring) LinkGOP(video, srcDir string, srcSeq int, dstVideo, dstDir string, dstSeq int) error {
	onSrc := make(map[int]bool, r.replicas)
	for _, i := range r.placement(video, srcDir, srcSeq) {
		onSrc[i] = true
	}
	// The copy fallback reads the source once, via the normal failover
	// path, lazily — an all-local-links call never touches it.
	var data []byte
	var dataErr error
	fetched := false
	fetch := func() ([]byte, error) {
		if !fetched {
			fetched = true
			data, dataErr = r.ReadGOP(video, srcDir, srcSeq)
		}
		return data, dataErr
	}
	var errs []error
	var failed []int
	ok := false
	for _, d := range r.placement(dstVideo, dstDir, dstSeq) {
		if onSrc[d] {
			err := r.members[d].LinkGOP(video, srcDir, srcSeq, dstVideo, dstDir, dstSeq)
			if err == nil {
				r.note(d, nil)
				ok = true
				continue
			}
			if !errors.Is(err, fs.ErrNotExist) {
				r.note(d, err)
			}
			// This member's source replica may be missing or degraded;
			// fall through to copying from a healthy replica.
		}
		b, err := fetch()
		if err == nil {
			err = r.members[d].WriteGOP(dstVideo, dstDir, dstSeq, b)
			r.note(d, err)
			err = r.memberErr(d, err)
		}
		if err != nil {
			errs = append(errs, err)
			failed = append(failed, d)
			continue
		}
		ok = true
	}
	if !ok {
		return errors.Join(errs...)
	}
	for _, d := range failed {
		r.journal.add(GOPAddr{dstVideo, dstDir, dstSeq}, d)
	}
	return nil
}

// fanOut runs fn against every member in parallel and joins the tagged
// errors. fn reports whether the operation applies to the member at
// all; only outcomes that do are charged to its health, so a member
// without an optional capability is neither blamed nor re-promoted.
func (r *Ring) fanOut(fn func(m Backend) (applies bool, err error)) error {
	errs := make([]error, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			applies, err := fn(m)
			if applies {
				r.note(i, err)
				errs[i] = r.memberErr(i, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// DeletePhysical removes one physical video from every member.
func (r *Ring) DeletePhysical(video, physDir string) error {
	r.journal.forget(func(a GOPAddr) bool { return a.Video == video && a.PhysDir == physDir })
	return r.fanOut(func(m Backend) (bool, error) { return true, m.DeletePhysical(video, physDir) })
}

// DeleteVideo removes a logical video's data from every member.
func (r *Ring) DeleteVideo(video string) error {
	r.journal.forget(func(a GOPAddr) bool { return a.Video == video })
	return r.fanOut(func(m Backend) (bool, error) { return true, m.DeleteVideo(video) })
}

// SweepTemps reclaims crash-orphaned temp files on every member that
// stages writes through them (see TempSweeper), in parallel.
func (r *Ring) SweepTemps(olderThan time.Duration) error {
	return r.fanOut(func(m Backend) (bool, error) {
		ts, ok := m.(TempSweeper)
		if !ok {
			return false, nil
		}
		return true, ts.SweepTemps(olderThan)
	})
}

// Walk visits every GOP exactly once — under replication the same
// address exists on several members, and only the first copy found (in
// member order) is reported. Members are walked sequentially (fn is not
// required to be concurrency-safe); within a member, order is
// unspecified as per the Backend contract.
func (r *Ring) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	var seen map[GOPAddr]bool
	if r.replicas > 1 {
		seen = make(map[GOPAddr]bool)
	}
	for i, m := range r.members {
		err := m.Walk(func(video, physDir string, seq int, size int64) error {
			if seen != nil {
				a := GOPAddr{video, physDir, seq}
				if seen[a] {
					return nil
				}
				seen[a] = true
			}
			return fn(video, physDir, seq, size)
		})
		if err != nil {
			return r.memberErr(i, err)
		}
	}
	return nil
}

// ReplicationStats snapshots the ring's replication health: placement
// config, failover count, per-member error counters and demotion state
// (members stand in for shards, labelled by root or node address), and
// the last scrub pass. Safe for concurrent use.
func (r *Ring) ReplicationStats() ReplicationStats {
	st := ReplicationStats{
		Shards:      len(r.members),
		Replicas:    r.replicas,
		Failovers:   r.failovers.Load(),
		ShardHealth: make([]ShardHealthStats, len(r.members)),
	}
	for i := range r.members {
		st.ShardHealth[i] = ShardHealthStats{
			Root:    r.labels[i],
			Errors:  r.health[i].errors.Load(),
			Demoted: r.demoted(i),
		}
	}
	r.scrubMu.Lock()
	st.Scrubs, st.LastScrub = r.scrubs, r.lastScrub
	r.scrubMu.Unlock()
	return st
}

// FleetStats renders the same health table as ReplicationStats in the
// routed-fleet shape, plus the journal and repair-cycle counters. It is
// deliberately not named ClusterStats: only a ring that routes to
// remote nodes (internal/router's Cluster) is a ClusterReporter, which
// is what selects the /metrics cluster section over the replication
// one.
func (r *Ring) FleetStats() ClusterStats {
	rep := r.ReplicationStats()
	st := ClusterStats{
		Nodes:          rep.Shards,
		Replicas:       rep.Replicas,
		Failovers:      rep.Failovers,
		JournalDepth:   r.journal.depth(),
		JournalDropped: r.journal.droppedCount(),
		RepairCycles:   r.repairCycles.Load(),
		Repaired:       r.repaired.Load(),
		RepairFailures: r.repairFailures.Load(),
		Scrubs:         rep.Scrubs,
		LastScrub:      rep.LastScrub,
		NodeHealth:     make([]NodeHealthStats, len(rep.ShardHealth)),
	}
	for i, h := range rep.ShardHealth {
		st.NodeHealth[i] = NodeHealthStats{Addr: h.Root, Errors: h.Errors, Demoted: h.Demoted}
	}
	return st
}
