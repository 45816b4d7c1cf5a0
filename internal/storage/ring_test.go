package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The ring is one implementation over two kinds of member, so its
// behaviour tests are one table (ringBehaviours) run against both:
// localfs roots (what OpenShardedReplicated builds) and Mem nodes (what
// the router's tests build). A behaviour that holds for only one kind
// would be exactly the drift the single ring exists to prevent.

// gate is a ring member that can be taken down: while down, every
// operation fails with a real (not a not-exist) error, like an
// unreachable node or an unmounted root.
type gate struct {
	Backend
	down atomic.Bool
}

var errDown = errors.New("member unreachable")

func (g *gate) check() error {
	if g.down.Load() {
		return errDown
	}
	return nil
}

func (g *gate) WriteGOP(video, physDir string, seq int, data []byte) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.WriteGOP(video, physDir, seq, data)
}

func (g *gate) ReadGOP(video, physDir string, seq int) ([]byte, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.Backend.ReadGOP(video, physDir, seq)
}

func (g *gate) GOPSize(video, physDir string, seq int) (int64, error) {
	if err := g.check(); err != nil {
		return 0, err
	}
	return g.Backend.GOPSize(video, physDir, seq)
}

func (g *gate) DeleteGOP(video, physDir string, seq int) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.DeleteGOP(video, physDir, seq)
}

func (g *gate) DeletePhysical(video, physDir string) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.DeletePhysical(video, physDir)
}

func (g *gate) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.Walk(fn)
}

// ringFixture is a 4-member, 2-replica ring whose members are gated
// stores of one kind, plus the kind's way of destroying a member's data
// behind the ring's back.
type ringFixture struct {
	ring  *Ring
	gates []*gate
	// wipe empties member i (the dead-disk-swapped-for-empty scenario:
	// the member is reachable and writable, its data is gone).
	wipe func(i int)
}

const (
	fixtureMembers  = 4
	fixtureReplicas = 2
)

// memberKinds are the two kinds of member a ring runs over in
// production, each as a constructor of one store and its wipe.
var memberKinds = []struct {
	name string
	open func(t *testing.T, i int) (store Backend, label string, wipe func())
}{
	{"localfs", func(t *testing.T, i int) (Backend, string, func()) {
		root := filepath.Join(t.TempDir(), fmt.Sprintf("root%d", i))
		s, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		return s, root, func() {
			if err := os.RemoveAll(root); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(root, 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"mem", func(t *testing.T, i int) (Backend, string, func()) {
		m := NewMem()
		return m, fmt.Sprintf("node-%d", i), func() {
			if err := m.DeleteVideo("v"); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

// payload returns a deterministic per-seq GOP payload.
func payload(seq int) []byte {
	return bytes.Repeat([]byte{byte('a' + seq%23)}, 128+seq)
}

// fill writes n GOPs of video "v" through the ring.
func (f *ringFixture) fill(t *testing.T, n int) {
	t.Helper()
	for seq := 0; seq < n; seq++ {
		if err := f.ring.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
	}
}

// held returns the addresses member i stores.
func (f *ringFixture) held(t *testing.T, i int) map[GOPAddr]bool {
	t.Helper()
	held := make(map[GOPAddr]bool)
	err := f.gates[i].Walk(func(video, physDir string, seq int, _ int64) error {
		held[GOPAddr{video, physDir, seq}] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return held
}

// seqsOn returns up to n sequence numbers of v/physDir whose placement
// includes member i.
func (f *ringFixture) seqsOn(i int, physDir string, n int) []int {
	var seqs []int
	for seq := 0; len(seqs) < n && seq < 1024; seq++ {
		if contains(f.ring.placement("v", physDir, seq), i) {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

var ringBehaviours = []struct {
	name string
	run  func(t *testing.T, f *ringFixture)
}{
	// The placement contract: R distinct members, primary first then ring
	// successors, and the R=1 placement a prefix of the R=2 one (what
	// makes raising -replicas on an existing store safe).
	{"placement-prefix", func(t *testing.T, f *ringFixture) {
		r1, err := NewRing("r1", f.ring.members, f.ring.labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		used := map[int]bool{}
		for seq := 0; seq < 64; seq++ {
			p := f.ring.placement("v", "p1", seq)
			if len(p) != 2 || p[1] != (p[0]+1)%fixtureMembers {
				t.Fatalf("seq %d: placement %v", seq, p)
			}
			if p1 := r1.placement("v", "p1", seq); len(p1) != 1 || p1[0] != p[0] {
				t.Fatalf("seq %d: R=1 placement %v is not a prefix of %v", seq, p1, p)
			}
			used[p[0]] = true
		}
		if len(used) < 2 {
			t.Errorf("64 GOPs share one primary: %v", used)
		}
	}},

	// Every write lands on both placement members (member-direct reads,
	// not failover).
	{"write-fan-out", func(t *testing.T, f *ringFixture) {
		f.fill(t, 16)
		for seq := 0; seq < 16; seq++ {
			for _, i := range f.ring.placement("v", "p1", seq) {
				got, err := f.gates[i].ReadGOP("v", "p1", seq)
				if err != nil || !bytes.Equal(got, payload(seq)) {
					t.Fatalf("seq %d replica on member %d: %v", seq, i, err)
				}
			}
		}
	}},

	// The headline failure drill: wiping ANY single member leaves every
	// GOP readable and byte-identical, with the detours visible in the
	// failover counter and the wiped member's error counter — and the
	// recovery drill on top: the copies failover reads caught missing are
	// journaled and restored by one Repair, the copies reads never probed
	// (a healthy primary hides its wiped successor) by one scrub, and a
	// second scrub proves convergence.
	{"read-failover-then-repair", func(t *testing.T, f *ringFixture) {
		const n = 40
		f.fill(t, n)
		sizes := StaticSizes{}
		for seq := 0; seq < n; seq++ {
			sizes[GOPAddr{"v", "p1", seq}] = int64(len(payload(seq)))
		}
		wiped := f.held(t, 1)
		if len(wiped) == 0 {
			t.Fatal("member 1 holds nothing; test needs a non-trivial wipe")
		}
		f.wipe(1)
		for seq := 0; seq < n; seq++ {
			got, err := f.ring.ReadGOP("v", "p1", seq)
			if err != nil || !bytes.Equal(got, payload(seq)) {
				t.Fatalf("seq %d after wipe: %v", seq, err)
			}
			if sz, err := f.ring.GOPSize("v", "p1", seq); err != nil || sz != int64(len(payload(seq))) {
				t.Fatalf("seq %d size after wipe: %d %v", seq, sz, err)
			}
		}
		st := f.ring.FleetStats()
		if st.Failovers == 0 {
			t.Error("no failovers recorded despite a wiped member")
		}
		if st.JournalDepth == 0 {
			t.Error("failover reads journaled nothing")
		}
		for i, h := range st.NodeHealth {
			if (i == 1) != (h.Errors > 0) {
				t.Errorf("member %d errors=%d (only the wiped member 1 should be charged)", i, h.Errors)
			}
		}

		repaired, err := f.ring.Repair()
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if repaired != st.JournalDepth {
			t.Errorf("repair restored %d copies, journal held %d", repaired, st.JournalDepth)
		}
		scrub, err := f.ring.Scrub(sizes)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		if repaired+int(scrub.Repaired) != len(wiped) || scrub.Unrecoverable != 0 {
			t.Errorf("repair (%d) + scrub (%+v) did not restore exactly the %d wiped copies", repaired, scrub, len(wiped))
		}
		for a := range wiped {
			got, err := f.gates[1].ReadGOP(a.Video, a.PhysDir, a.Seq)
			if err != nil || !bytes.Equal(got, payload(a.Seq)) {
				t.Fatalf("member 1 copy of %v after repair+scrub: %v", a, err)
			}
		}
		scrub, err = f.ring.Scrub(sizes)
		if err != nil || scrub.Repaired != 0 || scrub.Unrecoverable != 0 {
			t.Errorf("second scrub not a no-op: %+v %v", scrub, err)
		}
		if depth := f.ring.FleetStats().JournalDepth; depth != 0 {
			t.Errorf("journal depth = %d after full recovery", depth)
		}
	}},

	// A GOP missing from EVERY replica is a legitimate miss (eviction
	// races), not a member failure — health counters stay clean, nothing
	// is journaled, and the error chain keeps fs.ErrNotExist.
	{"missing-gop-blames-nobody", func(t *testing.T, f *ringFixture) {
		if _, err := f.ring.ReadGOP("v", "p1", 7); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing read error %v", err)
		}
		if _, err := f.ring.GOPSize("v", "p1", 7); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing size error %v", err)
		}
		st := f.ring.FleetStats()
		for i, h := range st.NodeHealth {
			if h.Errors != 0 {
				t.Errorf("member %d charged for a genuinely-missing GOP: %+v", i, h)
			}
		}
		if st.JournalDepth != 0 {
			t.Errorf("missing GOP journaled %d repairs", st.JournalDepth)
		}
	}},

	// The failover rule that keeps reads working inside the
	// rewrite-divergence window: when the primary holds a stale
	// (wrong-sized) copy, a size-hinted read serves the fresh replica
	// instead, and when NO replica matches the hint the caller's
	// expectation is presumed stale and the live bytes win.
	{"expect-skips-stale-replica", func(t *testing.T, f *ringFixture) {
		stale := bytes.Repeat([]byte{'S'}, 200)
		fresh := bytes.Repeat([]byte{'F'}, 80)
		if err := f.ring.WriteGOP("v", "p1", 9, fresh); err != nil {
			t.Fatal(err)
		}
		p := f.ring.placement("v", "p1", 9)
		// A rewrite that "missed" the primary: primary stale, successor fresh.
		if err := f.gates[p[0]].WriteGOP("v", "p1", 9, stale); err != nil {
			t.Fatal(err)
		}
		got, err := f.ring.ReadGOPExpect("v", "p1", 9, int64(len(fresh)))
		if err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("expect-read served %d bytes, want the fresh replica: %v", len(got), err)
		}
		if h := f.ring.FleetStats().NodeHealth[p[0]]; h.Errors != 1 {
			t.Errorf("stale primary not charged as out of sync: %+v", h)
		}
		// Plain read serves the stale primary.
		got, err = f.ring.ReadGOP("v", "p1", 9)
		if err != nil || !bytes.Equal(got, stale) {
			t.Fatalf("plain read: %v (%d bytes)", err, len(got))
		}
		// A hint nothing matches falls back to the live bytes.
		got, err = f.ring.ReadGOPExpect("v", "p1", 9, 999)
		if err != nil || len(got) == 0 {
			t.Fatalf("mismatched-hint read: %v (%d bytes)", err, len(got))
		}
		// A missing GOP still reports not-exist, without the fallback re-read.
		if _, err := f.ring.ReadGOPExpect("v", "p1", 99, 10); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing expect-read error %v", err)
		}
	}},

	// One member driven into repeated failure — by reads that try it
	// first, then by writes — demotes to last resort in the read order
	// (so later reads stop paying for it), then re-promotes on its first
	// success. Reads and writes keep succeeding throughout: the other
	// replica takes them.
	{"demotion-and-repromotion", func(t *testing.T, f *ringFixture) {
		var seqs []int // addresses whose primary is member 3
		for _, seq := range f.seqsOn(3, "p1", 64) {
			if f.ring.placement("v", "p1", seq)[0] == 3 && len(seqs) < demoteAfter {
				seqs = append(seqs, seq)
			}
		}
		for _, seq := range seqs {
			if err := f.ring.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
				t.Fatal(err)
			}
		}
		f.gates[3].down.Store(true)
		for _, seq := range seqs {
			if got, err := f.ring.ReadGOP("v", "p1", seq); err != nil || !bytes.Equal(got, payload(seq)) {
				t.Fatalf("read %d past a dead primary: %v", seq, err)
			}
		}
		st := f.ring.ReplicationStats()
		if !st.ShardHealth[3].Demoted || st.ShardHealth[3].Errors != demoteAfter || st.Failovers != demoteAfter {
			t.Fatalf("dead member after %d failed reads: %+v failovers=%d", demoteAfter, st.ShardHealth[3], st.Failovers)
		}
		for _, seq := range seqs {
			p := f.ring.placement("v", "p1", seq)
			if order := f.ring.readOrder(p); order[len(order)-1] != 3 {
				t.Errorf("demoted member 3 not last in read order %v (placement %v)", order, p)
			}
			if _, err := f.ring.ReadGOP("v", "p1", seq); err != nil {
				t.Fatalf("read %d while demoted: %v", seq, err)
			}
		}
		if got := f.ring.ReplicationStats().ShardHealth[3].Errors; got != demoteAfter {
			t.Errorf("demoted member still charged by reads: %d -> %d", demoteAfter, got)
		}
		if err := f.ring.WriteGOP("v", "p1", seqs[0], payload(seqs[0])); err != nil {
			t.Fatalf("write with one dead member: %v", err)
		}
		if got := f.ring.ReplicationStats().ShardHealth[3].Errors; got != demoteAfter+1 {
			t.Errorf("failed replica write not charged: errors = %d", got)
		}
		f.gates[3].down.Store(false)
		seq := f.seqsOn(3, "p2", 1)[0]
		if err := f.ring.WriteGOP("v", "p2", seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
		if st := f.ring.ReplicationStats(); st.ShardHealth[3].Demoted {
			t.Errorf("healed member still demoted: %+v", st.ShardHealth[3])
		}
	}},

	// Whole-video fan-out charges member health like per-GOP traffic
	// does, tags the failure with the member's label, and purges pending
	// repairs of what it deletes; an operation a member has no capability
	// for (SweepTemps on a gate) neither blames nor re-promotes it.
	{"fan-out-charges-health", func(t *testing.T, f *ringFixture) {
		f.gates[2].down.Store(true)
		f.fill(t, 16)
		if f.ring.FleetStats().JournalDepth == 0 {
			t.Fatal("writes past a down member journaled nothing")
		}
		before := f.ring.ReplicationStats().ShardHealth[2].Errors
		if err := f.ring.SweepTemps(time.Hour); err != nil {
			t.Errorf("sweep over members without temps: %v", err)
		}
		err := f.ring.DeletePhysical("v", "p1")
		if err == nil || !errors.Is(err, errDown) || !strings.Contains(err.Error(), f.ring.labels[2]) {
			t.Fatalf("DeletePhysical past a down member: %v, want errDown tagged %q", err, f.ring.labels[2])
		}
		st := f.ring.FleetStats()
		if got := st.NodeHealth[2].Errors; got != before+1 {
			t.Errorf("down member errors %d -> %d, want exactly the failed delete charged", before, got)
		}
		if st.JournalDepth != 0 {
			t.Errorf("deleted video left %d repairs journaled", st.JournalDepth)
		}
	}},

	// A scrub after a wipe restores every lost replica byte-identical and
	// records itself in the stats; a second scrub finds nothing to do.
	{"scrub-repairs-wiped-member", func(t *testing.T, f *ringFixture) {
		const n = 40
		f.fill(t, n)
		f.wipe(2)
		st, err := f.ring.Scrub(nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Checked != n || st.Unrecoverable != 0 || st.Repaired == 0 {
			t.Fatalf("scrub stats %+v", st)
		}
		for seq := 0; seq < n; seq++ {
			for _, i := range f.ring.placement("v", "p1", seq) {
				got, err := f.gates[i].ReadGOP("v", "p1", seq)
				if err != nil || !bytes.Equal(got, payload(seq)) {
					t.Fatalf("seq %d replica on member %d not restored: %v", seq, i, err)
				}
			}
		}
		if rep := f.ring.ReplicationStats(); rep.Scrubs != 1 || rep.LastScrub != st {
			t.Errorf("replication stats did not record the scrub: %+v", rep)
		}
		st, err = f.ring.Scrub(nil)
		if err != nil || st.Repaired != 0 || st.Unrecoverable != 0 {
			t.Errorf("second scrub not a no-op: %+v %v", st, err)
		}
	}},

	// One replica cut short in place (torn by a dying disk, not by our
	// atomic writes) is re-copied from the intact copy —
	// largest-copy-wins when no oracle is given.
	{"scrub-repairs-short-replica", func(t *testing.T, f *ringFixture) {
		want := payload(3)
		if err := f.ring.WriteGOP("v", "p1", 3, want); err != nil {
			t.Fatal(err)
		}
		victim := f.ring.placement("v", "p1", 3)[1]
		if err := f.gates[victim].WriteGOP("v", "p1", 3, want[:len(want)/2]); err != nil {
			t.Fatal(err)
		}
		st, err := f.ring.Scrub(nil)
		if err != nil || st.Repaired != 1 || st.Unrecoverable != 0 {
			t.Fatalf("scrub stats %+v %v", st, err)
		}
		got, err := f.gates[victim].ReadGOP("v", "p1", 3)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("short replica not repaired: %v (%d bytes, want %d)", err, len(got), len(want))
		}
	}},

	// The divergence rule that protects rewrites: when a GOP was
	// rewritten smaller (deferred lossless compression) and one replica
	// missed the write, the catalog's expected size — not the larger
	// stale copy — decides which replica is healthy; an address the
	// oracle disclaims is an orphan and its divergence is left alone.
	{"scrub-oracle-beats-largest-copy", func(t *testing.T, f *ringFixture) {
		stale := bytes.Repeat([]byte{'S'}, 200)
		fresh := bytes.Repeat([]byte{'F'}, 80)
		if err := f.ring.WriteGOP("v", "p1", 5, stale); err != nil {
			t.Fatal(err)
		}
		p := f.ring.placement("v", "p1", 5)
		if err := f.gates[p[0]].WriteGOP("v", "p1", 5, fresh); err != nil {
			t.Fatal(err)
		}
		st, err := f.ring.Scrub(StaticSizes{GOPAddr{"v", "p1", 5}: int64(len(fresh))})
		if err != nil || st.Repaired != 1 || st.Unrecoverable != 0 {
			t.Fatalf("scrub stats %+v %v", st, err)
		}
		for _, i := range p {
			got, err := f.gates[i].ReadGOP("v", "p1", 5)
			if err != nil || !bytes.Equal(got, fresh) {
				t.Fatalf("member %d holds %d bytes after oracle scrub, want fresh copy: %v", i, len(got), err)
			}
		}
		if err := f.gates[p[1]].WriteGOP("v", "p1", 5, stale); err != nil {
			t.Fatal(err)
		}
		st, err = f.ring.Scrub(StaticSizes{})
		if err != nil || st.Orphans == 0 || st.Repaired != 0 {
			t.Fatalf("orphan scrub stats %+v %v", st, err)
		}
	}},

	// An address the oracle expects but NO member holds must be counted
	// unrecoverable — the walk can't see it, so only the oracle
	// enumeration can report the loss.
	{"scrub-counts-total-loss", func(t *testing.T, f *ringFixture) {
		f.fill(t, 2)
		for _, i := range f.ring.placement("v", "p1", 1) {
			if err := f.gates[i].DeleteGOP("v", "p1", 1); err != nil {
				t.Fatal(err)
			}
		}
		st, err := f.ring.Scrub(StaticSizes{
			{"v", "p1", 0}: int64(len(payload(0))),
			{"v", "p1", 1}: int64(len(payload(1))),
		})
		if err != nil || st.Unrecoverable != 1 || st.Checked != 2 {
			t.Fatalf("scrub stats %+v %v, want the lost address counted unrecoverable", st, err)
		}
	}},

	// Scrub passes against concurrent writers, readers, and deleters
	// under the race detector: no data races, no torn reads (every
	// successful read is some writer's complete payload), no spurious
	// scrub failures.
	{"scrub-vs-traffic-stress", func(t *testing.T, f *ringFixture) {
		const (
			seqs    = 24
			rounds  = 30
			scrubs  = 10
			writers = 3
			readers = 3
		)
		var wg sync.WaitGroup
		errCh := make(chan error, writers+readers+2) // one slot per goroutine
		spawn := func(fn func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fn(); err != nil {
					errCh <- err
				}
			}()
		}
		for w := 0; w < writers; w++ {
			spawn(func() error {
				for r := 0; r < rounds; r++ {
					for seq := 0; seq < seqs; seq++ {
						if err := f.ring.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
							return fmt.Errorf("write: %w", err)
						}
					}
				}
				return nil
			})
		}
		for rd := 0; rd < readers; rd++ {
			spawn(func() error {
				for r := 0; r < rounds; r++ {
					for seq := 0; seq < seqs; seq++ {
						got, err := f.ring.ReadGOP("v", "p1", seq)
						if errors.Is(err, fs.ErrNotExist) {
							continue // deleted under us
						}
						if err != nil {
							return fmt.Errorf("read: %w", err)
						}
						if !bytes.Equal(got, payload(seq)) {
							return fmt.Errorf("seq %d: torn read (%d bytes)", seq, len(got))
						}
					}
				}
				return nil
			})
		}
		spawn(func() error {
			for r := 0; r < rounds; r++ {
				if err := f.ring.DeleteGOP("v", "p1", r%seqs); err != nil {
					return fmt.Errorf("delete: %w", err)
				}
			}
			return nil
		})
		spawn(func() error {
			for i := 0; i < scrubs; i++ {
				if _, err := f.ring.Scrub(nil); err != nil {
					return fmt.Errorf("scrub: %w", err)
				}
			}
			return nil
		})
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
	}},
}

// TestRingBehaviours runs every behaviour against every member kind.
func TestRingBehaviours(t *testing.T) {
	for _, kind := range memberKinds {
		for _, b := range ringBehaviours {
			t.Run(kind.name+"/"+b.name, func(t *testing.T) {
				f := &ringFixture{gates: make([]*gate, fixtureMembers)}
				members := make([]Backend, fixtureMembers)
				labels := make([]string, fixtureMembers)
				wipes := make([]func(), fixtureMembers)
				for i := range members {
					var store Backend
					store, labels[i], wipes[i] = kind.open(t, i)
					f.gates[i] = &gate{Backend: store}
					members[i] = f.gates[i]
				}
				f.wipe = func(i int) { wipes[i]() }
				var err error
				if f.ring, err = NewRing("ring", members, labels, fixtureReplicas); err != nil {
					t.Fatal(err)
				}
				b.run(t, f)
			})
		}
	}
}

func TestNewRingValidation(t *testing.T) {
	two := []Backend{NewMem(), NewMem()}
	if _, err := NewRing("ring", nil, nil, 1); err == nil {
		t.Error("ring with no members succeeded")
	}
	if _, err := NewRing("ring", two, []string{"a"}, 1); err == nil {
		t.Error("1 label for 2 members succeeded")
	}
	if _, err := NewRing("ring", two[:1], []string{"a"}, 2); err == nil {
		t.Error("2 replicas over 1 member succeeded")
	}
	r, err := NewRing("ring", two, []string{"a", "b"}, 0)
	if err != nil || r.Replicas() != 1 || r.Members() != 2 || r.Name() != "ring" {
		t.Errorf("replicas<1 not clamped to 1: %v %+v", err, r)
	}
}

// TestPlacementGolden pins placement to the bytes-on-disk contract: the
// values below were produced by the two pre-merge implementations
// (sharded over 4 roots, router over 3 nodes, both R=2), so a store or
// fleet written before the merge reads back from the same members
// after it. Changing placement must fail here first.
func TestPlacementGolden(t *testing.T) {
	addrs := []GOPAddr{
		{"cam", "p000001-640x360r30.h264", 0},
		{"cam", "p000001-640x360r30.h264", 1},
		{"cam", "p000001-640x360r30.h264", 2},
		{"cam", "p000001-640x360r30.h264", 3},
		{"cam", "p000002-320x180r30.hevc", 0},
		{"cam", "p000002-320x180r30.hevc", 17},
		{"lobby-east", "p000001-1920x1080r30.h264", 4096},
		{"v", "p1", 7},
		{CatalogSnapshotVideo, CatalogSnapshotDir, 0},
	}
	golden := map[int][][]int{
		4: {{2, 3}, {1, 2}, {0, 1}, {3, 0}, {2, 3}, {2, 3}, {0, 1}, {1, 2}, {3, 0}},
		3: {{2, 0}, {1, 2}, {1, 2}, {0, 1}, {1, 2}, {0, 1}, {2, 0}, {1, 2}, {1, 2}},
	}
	for n, want := range golden {
		members := make([]Backend, n)
		labels := make([]string, n)
		for i := range members {
			members[i], labels[i] = NewMem(), fmt.Sprint(i)
		}
		r, err := NewRing("ring", members, labels, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, a := range addrs {
			if got := r.placement(a.Video, a.PhysDir, a.Seq); fmt.Sprint(got) != fmt.Sprint(want[k]) {
				t.Errorf("%d members: %v placed on %v, want %v", n, a, got, want[k])
			}
		}
	}
}
