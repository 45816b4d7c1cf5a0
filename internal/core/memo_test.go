package core

import (
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
)

// memoScene writes the burst scene the memo tests query: six 8-frame GOPs
// at 8 fps, vehicles in GOPs 1, 3 and 4 only.
func memoScene(t *testing.T, s *Store) {
	t.Helper()
	writeVideo(t, s, "v", burstScene(48, 64, 48, [][2]int{{8, 16}, {30, 40}}), 8, codec.H264)
}

func mustParse(t *testing.T, p string) Predicate {
	t.Helper()
	pred, err := ParsePredicate(p)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// TestAnalysisMemoRepeatedRead: a repeated predicate read takes every
// decoded GOP's analysis from the memo and returns exactly what the first
// read returned — and what a full raw RGB read filtered with
// AnalyzeFrames returns. Callers own what they get: mutating one
// result's detections does not reach the next.
func TestAnalysisMemoRepeatedRead(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, DisableCache: true})
	memoScene(t, s)
	full, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"count >= 1", "motion >= 0"} {
		pred := mustParse(t, p)
		want := baselineMatches(full, 8, pred, 0, 6)
		first, err := s.ReadWhere("v", pred, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, p+" first", first.Matches, want)
		for _, m := range first.Matches {
			for i := range m.Info.Detections {
				m.Info.Detections[i].Box = frame.Rect{}
			}
		}
		second, err := s.ReadWhere("v", pred, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, p+" second", second.Matches, want)
		st := second.Stats
		if st.GOPsDecoded == 0 || st.AnalysisReused != st.GOPsDecoded {
			t.Errorf("%s: second read reused %d of %d decoded GOPs, want all", p, st.AnalysisReused, st.GOPsDecoded)
		}
		st.AnalysisReused = first.Stats.AnalysisReused
		if st != first.Stats {
			t.Errorf("%s: second read stats %+v, first %+v", p, second.Stats, first.Stats)
		}
	}
}

// TestAnalysisMemoJointRewrite: joint compression rewrites a GOP in place,
// under the same (video, phys, seq). The rewritten bytes key a different
// memo entry, so the next predicate read misses and analyses the new
// pixels, matching a fresh full read.
func TestAnalysisMemoJointRewrite(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, DisableCache: true})
	writePair(t, s, pairCfg(0.5, 0, 21), 8)
	pred := mustParse(t, "motion >= 0")
	for _, v := range []string{"cam-left", "cam-right"} {
		if _, err := s.ReadWhere(v, pred, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.JointCompressPair(GOPRef{"cam-left", 0, 0}, GOPRef{"cam-right", 0, 0}, MergeUnprojected)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compressed || res.Duplicate {
		t.Fatalf("pair not jointly compressed: %+v", res)
	}
	for _, v := range []string{"cam-left", "cam-right"} {
		got, err := s.ReadWhere(v, pred, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.AnalysisReused != 0 {
			t.Errorf("%s: %d GOPs reused an analysis of the bytes joint compression replaced", v, got.Stats.AnalysisReused)
		}
		full, err := s.Read(v, ReadSpec{})
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, v, got.Matches, baselineMatches(full, 8, pred, 0, 1))
	}
}

// TestAnalysisMemoConcurrentReads: predicate reads of the same GOPs from
// many goroutines at once, on a cold and then a warm memo, all return the
// reference matches (run under -race).
func TestAnalysisMemoConcurrentReads(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, Workers: 4, DisableCache: true})
	memoScene(t, s)
	full, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	pred := mustParse(t, "motion >= 0 or count >= 1")
	want := baselineMatches(full, 8, pred, 0, 6)
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		results := make([]*QueryResult, 8)
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.ReadWhere("v", pred, 0, 0)
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
			}()
		}
		wg.Wait()
		for _, res := range results {
			if res == nil {
				t.FailNow()
			}
			matchesEqual(t, "concurrent", res.Matches, want)
		}
	}
}

// TestAnalysisMemoOversizeEntry: an analysis larger than the memo's byte
// bound — here, any GOP with a detection — is computed and returned but
// not cached; one that fits is. Each query covers one GOP, so the
// outcome does not depend on the order units finish in.
func TestAnalysisMemoOversizeEntry(t *testing.T) {
	s := newStore(t, Options{GOPFrames: 8, DisableCache: true})
	s.memo = newAnalysisMemo(memoEntryBytes(make([]FrameInfo, 8)))
	memoScene(t, s)
	full, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	pred := mustParse(t, "motion >= 0")
	kinds := map[bool]int{}
	for g := 0; g < 6; g++ {
		t0, t1 := float64(g), float64(g+1)
		want := baselineMatches(full, 8, pred, t0, t1)
		quiet := true // no detection in the GOP: its analysis fits
		for _, m := range want {
			quiet = quiet && m.Info.Count() == 0
		}
		kinds[quiet]++
		for round := 0; round < 2; round++ {
			res, err := s.ReadWhere("v", pred, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, "bounded", res.Matches, want)
			// The quiet GOPs of the static backdrop are byte-identical, so
			// the first read of one may already find another's entry.
			if round == 0 && quiet {
				continue
			}
			wantReused := 0
			if quiet {
				wantReused = 1
			}
			if res.Stats.AnalysisReused != wantReused {
				t.Errorf("GOP %d round %d: %d GOPs reused, want %d", g, round, res.Stats.AnalysisReused, wantReused)
			}
		}
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("GOPs with and without detections: %v; the scene no longer exercises both", kinds)
	}
}

// TestAnalysisMemoLRU pins the memo's own contract: byte-bounded LRU
// eviction, copies in and out, and no entry larger than the bound.
func TestAnalysisMemoLRU(t *testing.T) {
	infos := func(dets int) []FrameInfo {
		return []FrameInfo{{Motion: 1, Detections: make([]Detection, dets)}, {Motion: 2}}
	}
	entry := memoEntryBytes(infos(1))
	m := newAnalysisMemo(2 * entry)
	a, b, c := memoKey{1}, memoKey{2}, memoKey{3}
	m.put(a, infos(1))
	m.put(b, infos(1))
	if _, ok := m.get(a); !ok { // a is now the most recent
		t.Fatal("a missing")
	}
	m.put(c, infos(1)) // evicts b
	if _, ok := m.get(b); ok {
		t.Error("b survived eviction")
	}
	got, ok := m.get(a)
	if !ok || len(got) != 2 || got[0].Count() != 1 || got[1].Detections != nil {
		t.Fatalf("a = %+v, %v", got, ok)
	}
	got[0].Detections[0].Color = [3]float64{9, 9, 9}
	if again, _ := m.get(a); again[0].Detections[0].Color != ([3]float64{}) {
		t.Error("a caller's write reached the memo")
	}
	big := memoKey{4}
	m.put(big, infos(int(2*entry))) // more detections than the bound allows
	if _, ok := m.get(big); ok {
		t.Error("an entry larger than the bound was cached")
	}
	if _, ok := m.get(c); !ok {
		t.Error("an oversize put evicted c")
	}
	if m.bytes > m.bound {
		t.Errorf("memo holds %d bytes over a %d bound", m.bytes, m.bound)
	}
}
