package core

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
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

// TestPrefetchDisabledEquivalence pins the IO-prefetch stage to the
// eager under-lock snapshot ReadContext retries with on a dangling
// reference: both attempts must produce byte-identical output (frames
// and encoded GOPs) and report the same stored bytes touched.
func TestPrefetchDisabledEquivalence(t *testing.T) {
	s := newStore(t, Options{DisableCache: true})
	writeVideo(t, s, "v", scene(24, 64, 48, 82), 4, codec.H264)
	drain := func(spec ReadSpec, eager bool) *ReadResult {
		st, err := s.openReadStream(context.Background(), "v", spec, eager, true)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		res := &ReadResult{}
		for _, b := range collect(t, st) {
			res.Frames = append(res.Frames, b.Frames...)
			if b.GOP != nil {
				res.GOPs = append(res.GOPs, b.GOP)
			}
		}
		res.Stats = st.Stats()
		return res
	}
	readBoth := func(eager bool) (*ReadResult, *ReadResult) {
		return drain(ReadSpec{}, eager), drain(ReadSpec{P: Physical{Codec: codec.HEVC}}, eager)
	}
	rawPre, encPre := readBoth(false)
	rawEager, encEager := readBoth(true)

	if len(rawPre.Frames) != len(rawEager.Frames) {
		t.Fatalf("frame count %d vs %d", len(rawPre.Frames), len(rawEager.Frames))
	}
	for i := range rawPre.Frames {
		if !bytes.Equal(rawPre.Frames[i].Data, rawEager.Frames[i].Data) {
			t.Fatalf("frame %d differs between prefetch and eager read", i)
		}
	}
	if len(encPre.GOPs) != len(encEager.GOPs) {
		t.Fatalf("GOP count %d vs %d", len(encPre.GOPs), len(encEager.GOPs))
	}
	for i := range encPre.GOPs {
		if !bytes.Equal(encPre.GOPs[i], encEager.GOPs[i]) {
			t.Fatalf("encoded GOP %d differs between prefetch and eager read", i)
		}
	}
	if encPre.Stats.BytesRead != encEager.Stats.BytesRead {
		t.Errorf("BytesRead %d (prefetch) vs %d (eager)", encPre.Stats.BytesRead, encEager.Stats.BytesRead)
	}
}

// TestResnapshotGOP exercises the stale-fetch fallback directly: a live
// GOP re-snapshots to decodable bytes under the lock, a vanished one
// surfaces as a dangling reference.
func TestResnapshotGOP(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 83), 4, codec.H264)
	_, phys, err := s.Info("v")
	if err != nil {
		t.Fatal(err)
	}
	key := jobKey{video: "v", phys: phys[0].ID, seq: 0}
	snap, err := s.resnapshotGOP(context.Background(), key, nil)
	if err != nil {
		t.Fatal(err)
	}
	frames, _, _, err := decodeSnap(snap, 0, -1)
	if err != nil || len(frames) == 0 {
		t.Fatalf("re-snapshotted GOP not decodable: %v (%d frames)", err, len(frames))
	}
	if _, err := s.resnapshotGOP(context.Background(), jobKey{video: "v", phys: 99, seq: 0}, nil); !errors.Is(err, errDanglingRef) {
		t.Errorf("missing phys error %v, want dangling ref", err)
	}
	if _, err := s.resnapshotGOP(context.Background(), jobKey{video: "ghost", phys: 0, seq: 0}, nil); err == nil {
		t.Error("missing video re-snapshot succeeded")
	}
}

func TestFetchStale(t *testing.T) {
	cases := []struct {
		err  error
		got  int
		want int64
		out  bool
	}{
		{nil, 10, 10, false},
		{nil, 10, 11, true},                      // rewritten in place (joint/lossless)
		{fs.ErrNotExist, 0, 10, true},            // evicted
		{errors.New("io failure"), 0, 10, false}, // real failures surface, no retry
	}
	for i, c := range cases {
		if got := fetchStale(c.err, c.got, c.want); got != c.out {
			t.Errorf("case %d: fetchStale=%v want %v", i, got, c.out)
		}
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
