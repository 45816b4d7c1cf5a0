package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/storage"
)

// gatedBackend is a ring member whose GOP writes can be made to fail, or
// to block until a gate channel closes.
type gatedBackend struct {
	storage.Backend
	fail atomic.Bool
	gate atomic.Pointer[chan struct{}]
	// entered receives once per write that found the gate armed.
	entered chan struct{}
}

func (g *gatedBackend) WriteGOP(video, physDir string, seq int, data []byte) error {
	if g.fail.Load() {
		return errors.New("injected write failure")
	}
	if gate := g.gate.Load(); gate != nil {
		g.entered <- struct{}{}
		<-*gate
	}
	return g.Backend.WriteGOP(video, physDir, seq, data)
}

// openDegradedRing opens a store over a 3-member, 2-replica ring and
// writes a video while the gated member (members[1]) fails every write,
// so the write-repair journal holds that member's missed copies.
func openDegradedRing(t *testing.T) (s *Store, ring *storage.Ring, gated *gatedBackend, members []storage.Backend) {
	t.Helper()
	gated = &gatedBackend{Backend: storage.NewMem(), entered: make(chan struct{}, 1)}
	members = []storage.Backend{storage.NewMem(), gated, storage.NewMem()}
	ring, err := storage.NewRing("test", members, []string{"m0", "m1", "m2"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s = newStore(t, Options{GOPFrames: 8, Backend: ring})
	gated.fail.Store(true)
	writeVideo(t, s, "v", scene(32, 64, 48, 21), 8, codec.H264)
	gated.fail.Store(false)
	if ring.FleetStats().JournalDepth == 0 {
		t.Fatal("degraded writes journaled nothing")
	}
	return s, ring, gated, members
}

// shortRepairInterval makes the background journal drain tick fast for
// the rest of the test.
func shortRepairInterval(t *testing.T) {
	old := repairInterval
	repairInterval = 10 * time.Millisecond
	t.Cleanup(func() { repairInterval = old })
}

// TestStartBackgroundNonPositiveInterval: an interval <= 0 disables
// Maintain without panicking the loop, on a store with no replicas
// (nothing to run at all) as on a replicated one (journal drain only).
func TestStartBackgroundNonPositiveInterval(t *testing.T) {
	s := newStore(t, Options{BudgetMultiple: -1})
	for _, d := range []time.Duration{0, -time.Second} {
		s.StartBackground(d)()
	}

	shortRepairInterval(t)
	s, ring, _, _ := openDegradedRing(t)
	stop := s.StartBackground(0)
	deadline := time.Now().Add(10 * time.Second)
	for ring.FleetStats().RepairCycles < 3 {
		if time.Now().After(deadline) {
			t.Fatal("journal drain never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if n := ring.FleetStats().Scrubs; n != 0 {
		t.Fatalf("interval 0 ran Maintain: %d scrubs", n)
	}
}

// TestStartBackgroundDrainsJournal: over a replicated ring whose member
// missed writes, the background loop alone — Maintain disabled, so no
// scrub — re-copies every missed replica.
func TestStartBackgroundDrainsJournal(t *testing.T) {
	shortRepairInterval(t)
	s, ring, _, members := openDegradedRing(t)
	stop := s.StartBackground(0)
	defer stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ring.FleetStats()
		if st.JournalDepth == 0 && st.Repaired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal did not drain: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if st := ring.FleetStats(); st.Scrubs != 0 {
		t.Fatalf("repair came from a scrub, not the journal drain: %+v", st)
	}
	// Every GOP is back on two members.
	_, phys, err := s.Info("v")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range phys {
		for _, g := range p.GOPs {
			copies := 0
			for _, m := range members {
				if _, err := m.GOPSize("v", p.Dir, g.Seq); err == nil {
					copies++
				}
			}
			if copies != 2 {
				t.Fatalf("GOP %s/%d has %d copies, want 2", p.Dir, g.Seq, copies)
			}
		}
	}
}

// TestStartBackgroundStopWaits: stop returns only after an in-flight
// pass finishes, so closing the store right after stop never races a
// running Maintain or repair.
func TestStartBackgroundStopWaits(t *testing.T) {
	shortRepairInterval(t)
	s, _, gated, _ := openDegradedRing(t)
	gate := make(chan struct{})
	gated.gate.Store(&gate)
	stop := s.StartBackground(0)
	select {
	case <-gated.entered: // a repair pass is now blocked in WriteGOP
	case <-time.After(10 * time.Second):
		t.Fatal("no repair pass reached the gated member")
	}
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a repair pass was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	gated.gate.Store(nil)
	close(gate)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return after the pass finished")
	}
}

// sweepFailBackend is a backend whose temp sweep always fails, so every
// Maintain pass reports an error.
type sweepFailBackend struct{ storage.Backend }

func (sweepFailBackend) SweepTemps(time.Duration) error { return errors.New("injected sweep failure") }

// waitBackground polls the store's background counters until ok holds.
func waitBackground(t *testing.T, s *Store, ok func(BackgroundStats) bool) BackgroundStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.BackgroundStats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("background counters never got there: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBackgroundStatsMaintainFailures: a Maintain pass that fails is
// counted, and its error kept, instead of dropped.
func TestBackgroundStatsMaintainFailures(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, Backend: sweepFailBackend{storage.NewMem()}})
	writeVideo(t, s, "v", scene(16, 64, 48, 5), 8, codec.H264)
	stop := s.StartBackground(5 * time.Millisecond)
	defer stop()
	waitBackground(t, s, func(st BackgroundStats) bool { return st.Maintain.Passes >= 2 })
	stop()
	st := s.BackgroundStats()
	if st.Maintain.Failures != st.Maintain.Passes {
		t.Errorf("%d of %d Maintain passes failed, want all", st.Maintain.Failures, st.Maintain.Passes)
	}
	if !strings.Contains(st.Maintain.LastError, "injected sweep failure") {
		t.Errorf("last Maintain error %q", st.Maintain.LastError)
	}
	if st.Maintain.LastMillis < 0 || st.Repair != (PassStats{}) {
		t.Errorf("stats %+v", st)
	}
}

// TestBackgroundStatsRepairFailures: journal drains that fail against a
// member still refusing writes are counted with their error; once the
// member recovers, passes succeed and the last error stays on record.
func TestBackgroundStatsRepairFailures(t *testing.T) {
	shortRepairInterval(t)
	s, ring, gated, _ := openDegradedRing(t)
	gated.fail.Store(true)
	stop := s.StartBackground(0)
	defer stop()
	st := waitBackground(t, s, func(st BackgroundStats) bool { return st.Repair.Failures >= 1 })
	if !strings.Contains(st.Repair.LastError, "injected write failure") {
		t.Errorf("last repair error %q", st.Repair.LastError)
	}
	gated.fail.Store(false)
	failed := st.Repair.Failures
	st = waitBackground(t, s, func(st BackgroundStats) bool {
		return st.Repair.Passes > st.Repair.Failures && ring.FleetStats().JournalDepth == 0
	})
	stop()
	if st.Repair.Failures < failed || st.Repair.LastError == "" {
		t.Errorf("a successful pass rewrote the failure record: %+v", st.Repair)
	}
	if st.Maintain != (PassStats{}) {
		t.Errorf("interval 0 ran Maintain: %+v", st.Maintain)
	}
}
