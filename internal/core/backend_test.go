package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/storage"
)

// TestShardedBackendEndToEnd drives the full read/write path over the
// sharded backend: GOPs must actually scatter across roots, concurrent
// readers must see complete data (race-detector coverage for per-shard
// parallel IO under the prefetch stage), and a reopen with the same
// roots must find every GOP.
func TestShardedBackendEndToEnd(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		backend, err := storage.OpenSharded(ShardRoots(dir, 3))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{GOPFrames: 8, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	writeVideo(t, s, "v", scene(24, 64, 48, 81), 4, codec.H264)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Read("v", ReadSpec{})
			if err != nil {
				t.Errorf("concurrent sharded read: %v", err)
				return
			}
			if len(res.Frames) != 24 {
				t.Errorf("concurrent sharded read returned %d frames, want 24", len(res.Frames))
			}
		}()
	}
	wg.Wait()

	// The original's three GOPs must not all sit on one shard-root.
	used := map[int]bool{}
	for i, root := range ShardRoots(dir, 3) {
		shard, err := storage.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		err = shard.Walk(func(video, physDir string, seq int, size int64) error {
			used[i] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(used) < 2 {
		t.Errorf("all GOPs landed on one shard root: %v", used)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.Close()
	res, err := s2.Read("v", ReadSpec{})
	if err != nil || len(res.Frames) != 24 {
		t.Fatalf("read after sharded reopen: %v, %d frames", err, len(res.Frames))
	}
}

// TestMemBackendEndToEnd runs write/read/delete against the in-memory
// backend through the full store, the configuration the CI parity job
// runs the whole core suite under.
func TestMemBackendEndToEnd(t *testing.T) {
	s, err := Open(t.TempDir(), Options{GOPFrames: 8, Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeVideo(t, s, "v", scene(16, 64, 48, 84), 4, codec.H264)
	res, err := s.Read("v", ReadSpec{T: Temporal{Start: 1, End: 3}})
	if err != nil || len(res.Frames) != 8 {
		t.Fatalf("mem-backend read: %v, %d frames", err, len(res.Frames))
	}
	if err := s.Delete("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("v", ReadSpec{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted video read error %v", err)
	}
	if st := s.BackendStats(); st.Backend != "mem" || st.Reads == 0 || st.Writes == 0 {
		t.Errorf("backend stats %+v", st)
	}
}
