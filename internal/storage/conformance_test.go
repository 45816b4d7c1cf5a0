package storage_test

import (
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// backends lists every local Backend implementation under one constructor
// signature, so the conformance suite and cross-backend tests sweep all
// of them. The sharded constructor uses 3 roots — enough that addresses
// actually scatter; the replicated variants (the ring over localfs roots
// and over in-memory nodes, the shape the router builds) must be
// observationally identical to the others (Walk dedup,
// delete-all-replicas, link semantics) despite keeping every GOP two or
// three times. The remote backend runs the same suite over a live vssd
// node in remote_test.go.
func backends(t *testing.T) map[string]func(t *testing.T) storage.Backend {
	t.Helper()
	return map[string]func(t *testing.T) storage.Backend{
		"localfs": func(t *testing.T) storage.Backend {
			s, err := storage.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"sharded": func(t *testing.T) storage.Backend {
			dir := t.TempDir()
			roots := []string{dir + "/s0", dir + "/s1", dir + "/s2"}
			s, err := storage.OpenSharded(roots)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"sharded-r2": func(t *testing.T) storage.Backend {
			dir := t.TempDir()
			roots := []string{dir + "/s0", dir + "/s1", dir + "/s2", dir + "/s3"}
			s, err := storage.OpenShardedReplicated(roots, 2)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"mem": func(t *testing.T) storage.Backend {
			return storage.NewMem()
		},
		"ring-mem-1node": memRing(1, 1),
		"ring-mem-r2":    memRing(3, 2),
		"ring-mem-r3":    memRing(3, 3),
	}
}

// memRing returns a constructor of a ring over n in-memory nodes.
func memRing(n, replicas int) func(t *testing.T) storage.Backend {
	return func(t *testing.T) storage.Backend {
		nodes := make([]storage.Backend, n)
		labels := make([]string, n)
		for i := range nodes {
			nodes[i], labels[i] = storage.NewMem(), fmt.Sprintf("node-%d", i)
		}
		r, err := storage.NewRing("ring", nodes, labels, replicas)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// TestBackendConformance runs the shared semantic suite (storagetest)
// against every backend: all must be drop-in interchangeable behind the
// interface, including hard-link fallback behavior and fs.ErrNotExist
// error chains.
func TestBackendConformance(t *testing.T) {
	for name, newBackend := range backends(t) {
		t.Run(name, func(t *testing.T) {
			storagetest.Conformance(t, newBackend(t))
		})
	}
}

// TestBackendConcurrentWriteSameGOP races writers on one GOP address; see
// storagetest.ConcurrentWriteSameGOP.
func TestBackendConcurrentWriteSameGOP(t *testing.T) {
	for name, newBackend := range backends(t) {
		t.Run(name, func(t *testing.T) {
			storagetest.ConcurrentWriteSameGOP(t, newBackend(t))
		})
	}
}

// TestInstrumentedCounters checks the metrics wrapper counts ops, bytes,
// and errors.
func TestInstrumentedCounters(t *testing.T) {
	b := storage.Instrument(storage.NewMem())
	if err := b.WriteGOP("v", "p", 0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadGOP("v", "p", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadGOP("v", "p", 1); err == nil {
		t.Fatal("expected miss")
	}
	st := b.Stats()
	if st.Backend != "mem" || st.Writes != 1 || st.Reads != 2 ||
		st.BytesWritten != 100 || st.BytesRead != 100 || st.Errors != 1 {
		t.Errorf("stats %+v", st)
	}
}
