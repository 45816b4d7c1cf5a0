package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// What is specific to the ring OpenSharded builds over real roots; the
// ring's behaviour itself is covered for both member kinds by
// ring_test.go.

func shardRoots(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	roots := make([]string, n)
	for i := range roots {
		roots[i] = filepath.Join(dir, fmt.Sprintf("s%d", i))
	}
	return roots
}

func TestOpenShardedValidation(t *testing.T) {
	if _, err := OpenSharded(nil); err == nil {
		t.Error("sharded backend with no roots succeeded")
	}
	if _, err := OpenShardedReplicated(shardRoots(t, 1), 2); err == nil {
		t.Error("2 replicas over 1 root succeeded")
	}
	roots := shardRoots(t, 2)
	s, err := OpenShardedReplicated(roots, 0)
	if err != nil || s.Replicas() != 1 || s.Name() != "sharded" {
		t.Fatalf("replicas<1 not clamped to 1: %v", err)
	}
	// Health rows are labelled by root path (the /metrics replication
	// section's shard_health[].root).
	for i, h := range s.ReplicationStats().ShardHealth {
		if h.Root != roots[i] {
			t.Errorf("shard %d labelled %q, want %q", i, h.Root, roots[i])
		}
	}
}

// TestShardedPlacementStable pins the property multi-process agreement
// rests on: shard placement is a pure function of the GOP address and
// the root list, so a store reopened with the same roots finds every
// GOP.
func TestShardedPlacementStable(t *testing.T) {
	roots := shardRoots(t, 3)
	s1, err := OpenSharded(roots)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for seq := 0; seq < n; seq++ {
		if err := s1.WriteGOP("cam", "p000001-640x360r30.h264", seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen (a second process) and read everything back.
	s2, err := OpenSharded(roots)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < n; seq++ {
		got, err := s2.ReadGOP("cam", "p000001-640x360r30.h264", seq)
		if err != nil || len(got) != 1 || got[0] != byte(seq) {
			t.Fatalf("seq %d after reopen: %v %v", seq, err, got)
		}
	}
}

// TestShardedDegradedShard verifies the unreplicated failure model: a
// GOP on a dead shard errors per GOP while GOPs on healthy shards keep
// serving.
func TestShardedDegradedShard(t *testing.T) {
	s, err := OpenSharded(shardRoots(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	seqOn := map[int]int{} // shard -> seq
	for seq := 0; len(seqOn) < 2 && seq < 64; seq++ {
		sh := s.placement("v", "p1", seq)[0]
		if _, ok := seqOn[sh]; !ok {
			seqOn[sh] = seq
		}
		if err := s.WriteGOP("v", "p1", seq, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Degrade shard 1 by replacing its tree behind the store's back.
	if err := s.members[1].DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadGOP("v", "p1", seqOn[1]); err == nil {
		t.Error("read from degraded shard succeeded")
	}
	if _, err := s.ReadGOP("v", "p1", seqOn[0]); err != nil {
		t.Errorf("healthy shard affected: %v", err)
	}
}

// TestShardedOutageRepairsFromJournal is the journal on local roots:
// writes that land while one root is out (replaced by a regular file, so
// every operation under it fails with ENOTDIR — a real failure, unlike a
// clean not-exist) are journaled, and once the root is back a single
// Scrub restores every copy from the journal alone — the walk that
// follows finds nothing left to repair.
func TestShardedOutageRepairsFromJournal(t *testing.T) {
	roots := shardRoots(t, 4)
	s, err := OpenShardedReplicated(roots, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(roots[3]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(roots[3], []byte("dead disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	const n = 24
	sizes := StaticSizes{}
	for seq := 0; seq < n; seq++ {
		if err := s.WriteGOP("v", "p1", seq, payload(seq)); err != nil {
			t.Fatalf("write %d with a root out: %v", seq, err)
		}
		sizes[GOPAddr{"v", "p1", seq}] = int64(len(payload(seq)))
	}
	missed := s.FleetStats().JournalDepth
	if missed == 0 {
		t.Fatal("no writes journaled during the outage")
	}
	if !s.ReplicationStats().ShardHealth[3].Demoted {
		t.Error("dead root not demoted")
	}

	if err := os.Remove(roots[3]); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(roots[3], 0o755); err != nil {
		t.Fatal(err)
	}
	scrub, err := s.Scrub(sizes)
	if err != nil {
		t.Fatal(err)
	}
	st := s.FleetStats()
	if int(st.Repaired) != missed || st.JournalDepth != 0 {
		t.Errorf("journal repaired %d of %d missed copies, depth %d", st.Repaired, missed, st.JournalDepth)
	}
	if scrub.Repaired != 0 || scrub.Unrecoverable != 0 {
		t.Errorf("scrub walk after the journal pass still repaired: %+v", scrub)
	}
	for seq := 0; seq < n; seq++ {
		for _, i := range s.placement("v", "p1", seq) {
			got, err := s.members[i].ReadGOP("v", "p1", seq)
			if err != nil || !bytes.Equal(got, payload(seq)) {
				t.Fatalf("seq %d replica on shard %d: %v", seq, i, err)
			}
		}
	}
	if s.ReplicationStats().ShardHealth[3].Demoted {
		t.Error("healed root still demoted after a successful repair")
	}
}

// TestShardedSweepTemps: the ring forwards SweepTemps to members that
// stage writes through temp files, so crash orphans on any root are
// reclaimed.
func TestShardedSweepTemps(t *testing.T) {
	roots := shardRoots(t, 2)
	s, err := OpenSharded(roots)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, root := range roots {
		dir := filepath.Join(root, "v", "p1")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(dir, ".0.gop.tmp-999999")
		if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		tmps = append(tmps, tmp)
	}
	if err := s.SweepTemps(0); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range tmps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("orphaned temp %s survived the ring's sweep (stat err %v)", tmp, err)
		}
	}
}
