package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/visualroad"
)

// These tests pin the read path's one guarantee against maintenance: once
// a read has planned a GOP, its bytes neither change nor disappear before
// the read fetches them. Each test parks a stream on a Workers: 1 store —
// the prefetch stage then fetches at most pinnedFrom GOPs (two in the
// look-ahead window, two consumed by the units the executor runs ahead)
// until the consumer calls Next, so every later planned GOP is certainly
// waiting — runs one kind of maintenance over those GOPs, drains the
// stream, and compares it with the same read drained before the
// maintenance ran (raw streams admit nothing, so that read leaves the
// store as it was). Once the stream is done, the next pass must do the
// work it skipped.

const pinnedFrom = 4 // first unit a parked Workers: 1 stream has not fetched

// pinScene is 16 s of 64x48 video at 8 fps: 16 GOPs of 8 frames.
func pinScene() []*frame.Frame { return scene(128, 64, 48, 71) }

// writeUnlimited writes frames as a new video with no storage budget, so
// admitted views stay until a test shrinks it.
func writeUnlimited(t *testing.T, s *Store, name string, frames []*frame.Frame) {
	t.Helper()
	if err := s.Create(name, -1); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(name, WriteSpec{FPS: 8, Codec: codec.H264, Quality: 90}, frames); err != nil {
		t.Fatal(err)
	}
}

// readView admits the raw view a read of spec produces.
func readView(t *testing.T, s *Store, video string, spec ReadSpec) {
	t.Helper()
	res, err := s.Read(video, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Admitted {
		t.Fatalf("read of %s %+v admitted no view", video, spec.T)
	}
}

// parkStream opens a stream and consumes nothing. When view >= 0 the plan
// must read exactly that physical view.
func parkStream(t *testing.T, s *Store, video string, spec ReadSpec, view int) *ReadStream {
	t.Helper()
	st, err := s.ReadStream(context.Background(), video, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if view >= 0 && (len(st.job.fragIDs) != 1 || st.job.fragIDs[0] != view) {
		t.Fatalf("stream of %s plans over views %v, want [%d]", video, st.job.fragIDs, view)
	}
	return st
}

// drainStream reads a stream to EOF, failing on any error, and returns
// every output frame's bytes in order.
func drainStream(t *testing.T, st *ReadStream) [][]byte {
	t.Helper()
	var out [][]byte
	for _, b := range collect(t, st) {
		for _, f := range b.Frames {
			out = append(out, f.Data)
		}
	}
	return out
}

// sameOutput compares a drained stream with the read drained before the
// maintenance ran.
func sameOutput(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs from the read before maintenance", label, i)
		}
	}
}

// viewGOPs returns the GOPs of one physical view of a video, nil if the
// view is gone.
func viewGOPs(t *testing.T, s *Store, video string, id int) []GOPMeta {
	t.Helper()
	_, phys, err := s.Info(video)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range phys {
		if p.ID == id {
			return p.GOPs
		}
	}
	return nil
}

// locked runs fn with the video's lock held.
func locked(t *testing.T, s *Store, video string, fn func(vs *videoState) error) {
	t.Helper()
	vs := s.acquire(video)
	if vs == nil {
		t.Fatalf("video %s missing", video)
	}
	err := fn(vs)
	vs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPinHoldsEviction(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, Workers: 1})
	writeUnlimited(t, s, "v", pinScene())
	readView(t, s, "v", ReadSpec{}) // raw view 1, 16 GOPs
	want := drainStream(t, parkStream(t, s, "v", ReadSpec{}, 1))
	st := parkStream(t, s, "v", ReadSpec{}, 1)
	evict := func(vs *videoState) error {
		vs.meta.Budget = 1 // everything but the original must go
		return s.evictLocked(vs)
	}
	locked(t, s, "v", evict)
	kept := map[int]bool{}
	for _, g := range viewGOPs(t, s, "v", 1) {
		kept[g.Seq] = true
	}
	for seq := pinnedFrom; seq < 16; seq++ {
		if !kept[seq] {
			t.Errorf("eviction removed GOP %d of view 1 while a stream had planned it", seq)
		}
	}
	sameOutput(t, "stream over evicted view", drainStream(t, st), want)
	st.Close()

	locked(t, s, "v", evict)
	if gops := viewGOPs(t, s, "v", 1); gops != nil {
		t.Errorf("eviction after the stream left %d GOPs of view 1", len(gops))
	}
}

func TestPinHoldsDeferredCompression(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, Workers: 1})
	writeUnlimited(t, s, "v", pinScene())
	readView(t, s, "v", ReadSpec{})
	want := drainStream(t, parkStream(t, s, "v", ReadSpec{}, 1))
	st := parkStream(t, s, "v", ReadSpec{}, 1)
	compressAll := func(vs *videoState) error {
		for i := 0; i < 16; i++ {
			if _, err := s.compressOneLocked(vs, 5); err != nil {
				return err
			}
		}
		return nil
	}
	locked(t, s, "v", compressAll)
	for _, g := range viewGOPs(t, s, "v", 1) {
		if g.Seq >= pinnedFrom && g.Lossless != 0 {
			t.Errorf("deferred compression rewrote GOP %d of view 1 while a stream had planned it", g.Seq)
		}
	}
	sameOutput(t, "stream over recompressed view", drainStream(t, st), want)
	st.Close()

	locked(t, s, "v", compressAll)
	for _, g := range viewGOPs(t, s, "v", 1) {
		if g.Lossless == 0 {
			t.Errorf("GOP %d of view 1 still uncompressed after the stream", g.Seq)
		}
	}
}

func TestPinHoldsCompaction(t *testing.T) {
	second := ReadSpec{T: Temporal{Start: 8, End: 16}}
	s := newStore(t, Options{GOPFrames: 8, Workers: 1})
	writeUnlimited(t, s, "v", pinScene())
	readView(t, s, "v", ReadSpec{T: Temporal{Start: 0, End: 8}}) // view 1
	readView(t, s, "v", second)                                  // view 2, merged into 1
	want := drainStream(t, parkStream(t, s, "v", second, 2))
	st := parkStream(t, s, "v", second, 2)
	if n, err := s.CompactVideo("v"); err != nil || n != 0 {
		t.Errorf("compaction merged %d pairs (%v) while a stream had planned view 2", n, err)
	}
	sameOutput(t, "stream over compacted view", drainStream(t, st), want)
	st.Close()

	if n, err := s.CompactVideo("v"); err != nil || n != 1 {
		t.Errorf("compaction after the stream merged %d pairs (%v), want 1", n, err)
	}
}

// jointCase checks that joint compression of GOP pair (a/seq, b/seq)
// leaves GOPs that streams of both videos planned alone, then does the
// work once they are done. a and b hold jointFrames frames; check tells
// whether a JointResult did the work.
func jointCase(t *testing.T, a, b []*frame.Frame, check func(JointResult) bool) {
	t.Helper()
	const seq = pinnedFrom // the last GOP: planned, never fetched by a parked stream
	s := newStore(t, Options{GOPFrames: 8, Workers: 1})
	writeUnlimited(t, s, "a", a)
	writeUnlimited(t, s, "b", b)
	names := []string{"a", "b"}
	want := map[string][][]byte{}
	streams := map[string]*ReadStream{}
	for _, name := range names {
		want[name] = drainStream(t, parkStream(t, s, name, ReadSpec{}, -1))
		streams[name] = parkStream(t, s, name, ReadSpec{}, -1)
	}
	compress := func() JointResult {
		res, err := s.JointCompressPair(GOPRef{"a", 0, seq}, GOPRef{"b", 0, seq}, MergeUnprojected)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := compress(); res.Compressed {
		t.Errorf("joint compression rewrote GOPs streams had planned: %+v", res)
	}
	for _, name := range names {
		sameOutput(t, "stream of "+name, drainStream(t, streams[name]), want[name])
		streams[name].Close()
	}

	if res := compress(); !check(res) {
		t.Errorf("joint compression after the streams: %+v", res)
	}
}

// jointFrames is five 8-frame GOPs: a parked stream leaves the last one
// unfetched.
const jointFrames = 8 * (pinnedFrom + 1)

func TestPinHoldsJointCompression(t *testing.T) {
	left, right := visualroad.GeneratePair(pairCfg(0.5, 0, 21), jointFrames)
	jointCase(t, left, right, func(res JointResult) bool { return res.Compressed && !res.Duplicate })
}

func TestPinHoldsDuplicateMarking(t *testing.T) {
	frames := visualroad.Generate(pairCfg(0, 0, 23), jointFrames)
	jointCase(t, frames, frames, func(res JointResult) bool { return res.Duplicate })
}

// pinCount is the number of GOP addresses running reads have pinned.
func pinCount(s *Store) int {
	s.pins.mu.Lock()
	defer s.pins.mu.Unlock()
	return len(s.pins.n)
}

// waitUnpinned waits for every pin to be released: a read that ends
// early leaves its not-yet-started fetches to the prefetch stage, which
// releases them as it winds down.
func waitUnpinned(t *testing.T, s *Store) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); pinCount(s) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d GOP addresses still pinned after the read ended", pinCount(s))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPinsReleased checks that every way a read ends releases every pin
// it took: EOF, an early Close, a cancelled context, a failing unit, and
// a phase A that retried with a larger lock set.
func TestPinsReleased(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, Workers: 1})
	writeUnlimited(t, s, "v", pinScene())
	pred, err := ParsePredicate("count >= 0")
	if err != nil {
		t.Fatal(err)
	}
	open := func(ctx context.Context) *ReadStream {
		st, err := s.ReadStream(ctx, "v", ReadSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if pinCount(s) == 0 {
			t.Fatal("an open stream pins nothing")
		}
		return st
	}

	t.Run("EOF", func(t *testing.T) {
		st := open(context.Background())
		collect(t, st)
		if n := pinCount(s); n != 0 {
			t.Errorf("%d addresses pinned at EOF", n)
		}
		if _, err := s.ReadWhere("v", pred, 0, 0); err != nil {
			t.Fatal(err)
		}
		if n := pinCount(s); n != 0 {
			t.Errorf("%d addresses pinned after ReadWhere", n)
		}
	})
	t.Run("Close", func(t *testing.T) {
		st := open(context.Background())
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
		st.Close()
		waitUnpinned(t, s)
		qs, err := s.ReadStreamWhere(context.Background(), "v", pred, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		qs.Close()
		waitUnpinned(t, s)
	})
	t.Run("Cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		st := open(ctx)
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := st.Next(); !errors.Is(err, context.Canceled) {
			t.Errorf("Next after cancel: %v", err)
		}
		waitUnpinned(t, s)
	})
	t.Run("FailingUnit", func(t *testing.T) {
		skipWithoutGOPFiles(t)
		dir := t.TempDir()
		fs, err := Open(dir, Options{GOPFrames: 8, Workers: 1, DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		writeUnlimited(t, fs, "v", pinScene())
		corruptGOPInPlace(t, dir, "v", 2)
		st, err := fs.ReadStream(context.Background(), "v", ReadSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, err := st.Next()
			if err == io.EOF {
				t.Fatal("stream over a corrupt GOP reached EOF")
			}
			if err != nil {
				break
			}
		}
		waitUnpinned(t, fs)
		if _, err := fs.ReadWhere("v", pred, 0, 0); err == nil {
			t.Fatal("predicate read over a corrupt GOP succeeded")
		}
		waitUnpinned(t, fs)
	})
	t.Run("PhaseARetry", func(t *testing.T) {
		// A right-role joint GOP after the first candidate sends phase A
		// back for its partner's lock: nothing the first attempt planned
		// may outlive it, neither pins nor units.
		js := newStore(t, Options{GOPFrames: 8, Workers: 1})
		left, right := visualroad.GeneratePair(pairCfg(0.5, 0, 21), 16)
		writeUnlimited(t, js, "a", left)
		writeUnlimited(t, js, "b", right)
		res, err := js.JointCompressPair(GOPRef{"a", 0, 1}, GOPRef{"b", 0, 1}, MergeUnprojected)
		if err != nil || !res.Compressed {
			t.Fatalf("pair not compressed: %+v %v", res, err)
		}
		for _, name := range []string{"a", "b"} {
			if _, err := js.Read(name, ReadSpec{}); err != nil {
				t.Fatal(err)
			}
			if n := pinCount(js); n != 0 {
				t.Errorf("%d addresses pinned after reading %s", n, name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			q, err := js.ReadWhereContext(ctx, name, pred, 0, 0)
			cancel()
			if err != nil {
				t.Fatalf("predicate read of %s: %v", name, err)
			}
			if len(q.Matches) != 16 {
				t.Errorf("predicate read of %s matched %d frames, want 16", name, len(q.Matches))
			}
			if n := pinCount(js); n != 0 {
				t.Errorf("%d addresses pinned after the predicate read of %s", n, name)
			}
		}
	})
}
