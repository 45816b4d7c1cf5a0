package router_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/vss"
)

// The cluster must satisfy the full backend surface plus the interfaces
// core discovers through the wrap chain.
var (
	_ storage.Backend             = (*router.Cluster)(nil)
	_ storage.Scrubber            = (*router.Cluster)(nil)
	_ storage.ExpectReader        = (*router.Cluster)(nil)
	_ storage.ContextExpectReader = (*router.Cluster)(nil)
	_ storage.ClusterReporter     = (*router.Cluster)(nil)
)

// The ring's behaviour (placement, fan-out, failover, demotion, scrub)
// is tested once for every member kind in internal/storage; the tests
// here cover what the router adds to it: the fleet-facing surface, the
// journal lifecycle as the daemon drives it, and the wire.

// TestClusterSurface pins what distinguishes a routed ring from a
// sharded one to the layers above: the backend kind, node-labelled
// health rows, and — the switch /metrics keys its cluster section on —
// being a ClusterReporter, which a plain ring must NOT be.
func TestClusterSurface(t *testing.T) {
	nodes := []storage.Backend{storage.NewMem(), storage.NewMem(), storage.NewMem()}
	c, err := router.New(nodes, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "cluster" || c.Members() != 3 || c.Replicas() != 2 {
		t.Errorf("cluster %q: %d nodes, %d replicas", c.Name(), c.Members(), c.Replicas())
	}
	cr := storage.AsClusterReporter(storage.Instrument(c))
	if cr == nil {
		t.Fatal("instrumented cluster is not a ClusterReporter")
	}
	st := cr.ClusterStats()
	if st.Nodes != 3 || st.Replicas != 2 || len(st.NodeHealth) != 3 || st.NodeHealth[1].Addr != "node-1" {
		t.Errorf("cluster stats %+v", st)
	}
	if err := c.Ping(t.Context()); err != nil {
		t.Errorf("ping over nodes without a health endpoint: %v", err)
	}
	if _, err := router.New(nodes, []string{"only-one"}, 2); err == nil {
		t.Error("1 label for 3 nodes succeeded")
	}
	sharded, err := storage.OpenShardedReplicated([]string{t.TempDir(), t.TempDir()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if storage.AsClusterReporter(sharded) != nil {
		t.Error("a sharded ring reports itself as a cluster: /metrics would swap its replication section for a cluster one")
	}
}

// payload derives a deterministic GOP body from its sequence number.
func payload(seq int) []byte {
	return bytes.Repeat([]byte{byte(seq + 1)}, 64+seq)
}

// nodeAddrs returns the GOP addresses a node currently stores.
func nodeAddrs(t *testing.T, node storage.Backend) map[storage.GOPAddr]bool {
	t.Helper()
	held := make(map[storage.GOPAddr]bool)
	err := node.Walk(func(video, physDir string, seq int, size int64) error {
		held[storage.GOPAddr{Video: video, PhysDir: physDir, Seq: seq}] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return held
}

// gated wraps a backend that can be taken down: every operation fails
// while down is set, simulating an unreachable node.
type gated struct {
	storage.Backend
	down atomic.Bool
}

var errDown = errors.New("node unreachable")

func (g *gated) check() error {
	if g.down.Load() {
		return errDown
	}
	return nil
}

func (g *gated) WriteGOP(video, physDir string, seq int, data []byte) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.WriteGOP(video, physDir, seq, data)
}

func (g *gated) ReadGOP(video, physDir string, seq int) ([]byte, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.Backend.ReadGOP(video, physDir, seq)
}

func (g *gated) GOPSize(video, physDir string, seq int) (int64, error) {
	if err := g.check(); err != nil {
		return 0, err
	}
	return g.Backend.GOPSize(video, physDir, seq)
}

func (g *gated) DeleteGOP(video, physDir string, seq int) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.DeleteGOP(video, physDir, seq)
}

func (g *gated) Walk(fn func(video, physDir string, seq int, size int64) error) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.Backend.Walk(fn)
}

// TestClusterOutageJournalsWrites takes one node down, keeps writing,
// and requires the journal to re-replicate everything the node missed
// once it returns — without a scrub.
func TestClusterOutageJournalsWrites(t *testing.T) {
	const gops = 12
	down := &gated{Backend: storage.NewMem()}
	nodes := []storage.Backend{storage.NewMem(), down, storage.NewMem()}
	c, err := router.New(nodes, []string{"n0", "n1", "n2"}, 2)
	if err != nil {
		t.Fatal(err)
	}

	down.down.Store(true)
	sizes := storage.StaticSizes{}
	for i := range gops {
		if err := c.WriteGOP("v", "p", i, payload(i)); err != nil {
			t.Fatalf("write %d with a node down: %v", i, err)
		}
		sizes[storage.GOPAddr{Video: "v", PhysDir: "p", Seq: i}] = int64(len(payload(i)))
	}
	depth := c.ClusterStats().JournalDepth
	if depth == 0 {
		t.Fatal("no writes journaled during the outage")
	}
	for i := range gops {
		got, err := c.ReadGOP("v", "p", i)
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("read %d during outage: %v", i, err)
		}
	}

	// While the node is still down, repairs fail and re-queue.
	if _, err := c.Repair(); err == nil {
		t.Error("repair against a down node reported success")
	}
	if got := c.ClusterStats().JournalDepth; got != depth {
		t.Errorf("journal depth after failed repair = %d, want %d", got, depth)
	}

	down.down.Store(false)
	repaired, err := c.Repair()
	if err != nil {
		t.Fatalf("repair after recovery: %v", err)
	}
	if repaired != depth {
		t.Errorf("repaired %d, want %d", repaired, depth)
	}
	held := nodeAddrs(t, down.Backend)
	for a := range held {
		got, err := down.Backend.ReadGOP(a.Video, a.PhysDir, a.Seq)
		if err != nil || !bytes.Equal(got, payload(a.Seq)) {
			t.Fatalf("recovered node copy of %v wrong: %v", a, err)
		}
	}
	if st := c.ClusterStats(); st.JournalDepth != 0 || st.RepairFailures == 0 {
		t.Errorf("stats after recovery: depth=%d repair_failures=%d", st.JournalDepth, st.RepairFailures)
	}

	// The write-path journal was complete: full replication is already
	// restored, no scrub needed.
	scrub, err := c.Scrub(sizes)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if scrub.Repaired != 0 || scrub.Unrecoverable != 0 {
		t.Errorf("scrub after journal-only recovery: repaired=%d unrecoverable=%d, want 0/0",
			scrub.Repaired, scrub.Unrecoverable)
	}
}

// wireCluster boots n real vssd nodes on TCP listeners and a cluster
// routing to them over the wire protocol.
func wireCluster(t *testing.T, n, replicas int) (*router.Cluster, []*vss.System) {
	t.Helper()
	addrs := make([]string, n)
	systems := make([]*vss.System, n)
	for i := range n {
		sys, err := vss.OpenWith(t.TempDir(), vss.Options{GOPFrames: 8}, vss.NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		ts := httptest.NewServer(server.New(sys, server.Config{}))
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
		systems[i] = sys
	}
	c, err := router.Open(addrs, replicas, storage.RemoteOptions{Attempts: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c, systems
}

// TestClusterWireWipeDrill is the wipe drill over the real wire
// protocol: httptest vssd nodes, a routed write set, one node's data
// destroyed, byte-identical failover reads, and journal-driven
// re-replication.
func TestClusterWireWipeDrill(t *testing.T) {
	const gops = 12
	c, systems := wireCluster(t, 3, 2)
	if err := c.Ping(t.Context()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := range gops {
		if err := c.WriteGOP("v", "p", i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}

	wiped := nodeAddrs(t, systems[0].Backend())
	if len(wiped) == 0 {
		t.Fatal("node 0 holds nothing")
	}
	if err := systems[0].Backend().DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}

	sizes := storage.StaticSizes{}
	for i := range gops {
		got, err := c.ReadGOP("v", "p", i)
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("degraded wire read %d: %v", i, err)
		}
		sizes[storage.GOPAddr{Video: "v", PhysDir: "p", Seq: i}] = int64(len(payload(i)))
	}
	repaired, err := c.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	scrub, err := c.Scrub(sizes)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if repaired+int(scrub.Repaired) != len(wiped) {
		t.Errorf("repair (%d) + scrub (%d) restored copies != %d wiped", repaired, scrub.Repaired, len(wiped))
	}
	for a := range wiped {
		got, err := systems[0].Backend().ReadGOP(a.Video, a.PhysDir, a.Seq)
		if err != nil || !bytes.Equal(got, payload(a.Seq)) {
			t.Fatalf("node 0 copy of %v after wire repair: %v", a, err)
		}
	}
}
