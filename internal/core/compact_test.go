package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codec"
)

// TestCompactionAfterEviction is the regression test for merging into a
// view that eviction has already thinned. Eviction removes pages without
// renumbering the survivors, so a view that lost its first page has
// len(GOPs) equal to a sequence number a live page still owns; a merge
// that numbered the linked GOPs from there overwrote that page's file,
// and the next eviction of either page left the other's metadata
// pointing at a deleted file. The merged store must read byte-identical
// to a store that took the same evictions but never compacted, before
// and after a further eviction, and the merged GOPs must keep their
// feature summaries.
func TestCompactionAfterEviction(t *testing.T) {
	hevc := Physical{Codec: codec.HEVC}
	build := func() *Store {
		s := newStore(t, Options{GOPFrames: 4, BudgetMultiple: -1})
		writeVideo(t, s, "v", scene(32, 64, 48, 24), 4, codec.H264)
		// Two contiguous cached views of four 1-second pages each.
		for _, start := range []float64{0, 4} {
			if _, err := s.Read("v", ReadSpec{T: Temporal{Start: start, End: start + 4}, P: hevc}); err != nil {
				t.Fatal(err)
			}
		}
		// No read path summarizes a cached view today, so stamp each page
		// with a recognizable summary for the merge to carry.
		vs := s.acquire("v")
		defer vs.mu.Unlock()
		for _, p := range vs.phys {
			for i := range p.GOPs {
				if a, _ := p.gopSpan(&p.GOPs[i]); !p.Orig {
					p.GOPs[i].Summary = &GOPSummary{MaxCount: int(math.Round(a)) + 1}
				}
			}
			if err := s.savePhys("v", p); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// evictPage removes the cached page starting at second `at`, the way
	// evictLocked removes its victims.
	evictPage := func(s *Store, at float64) {
		t.Helper()
		vs := s.acquire("v")
		defer vs.mu.Unlock()
		for _, p := range vs.phys {
			for i := range p.GOPs {
				if a, _ := p.gopSpan(&p.GOPs[i]); p.Orig || math.Abs(a-at) > timeEps {
					continue
				}
				if err := s.removeGOPLocked(vs, p, &p.GOPs[i]); err != nil {
					t.Fatal(err)
				}
				if err := s.savePhys("v", p); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("no cached page starts at %vs", at)
	}
	// cached returns each cached page's summary stamp by start second
	// (0 for a page whose summary was dropped).
	cached := func(s *Store) map[int]int {
		_, phys, err := s.Info("v")
		if err != nil {
			t.Fatal(err)
		}
		pages := map[int]int{}
		for _, p := range phys {
			for i := range p.GOPs {
				if p.Orig {
					continue
				}
				a, _ := p.gopSpan(&p.GOPs[i])
				pages[int(math.Round(a))] = 0
				if sum := p.GOPs[i].Summary; sum != nil {
					pages[int(math.Round(a))] = sum.MaxCount
				}
			}
		}
		return pages
	}
	sameReads := func(merged, ref *Store, spans ...Temporal) {
		t.Helper()
		for _, span := range spans {
			got, err := merged.Read("v", ReadSpec{T: span, P: hevc})
			if err != nil {
				t.Fatalf("compacted store, read %v: %v", span, err)
			}
			want, err := ref.Read("v", ReadSpec{T: span, P: hevc})
			if err != nil {
				t.Fatalf("reference store, read %v: %v", span, err)
			}
			if len(got.GOPs) != len(want.GOPs) {
				t.Fatalf("read %v: %d GOPs, uncompacted store returns %d", span, len(got.GOPs), len(want.GOPs))
			}
			for i := range want.GOPs {
				if !bytes.Equal(got.GOPs[i], want.GOPs[i]) {
					t.Errorf("read %v: GOP %d differs from the uncompacted store", span, i)
				}
			}
		}
	}

	merged, ref := build(), build()
	evictPage(merged, 0)
	evictPage(ref, 0)
	if n, err := merged.CompactVideo("v"); err != nil || n != 1 {
		t.Fatalf("CompactVideo = %d, %v; want one merge", n, err)
	}
	for sec := 1; sec < 8; sec++ {
		if got, want := cached(merged)[sec], cached(ref)[sec]; got != want || want != sec+1 {
			t.Errorf("page at %ds: summary stamp %d after the merge, %d uncompacted, want %d", sec, got, want, sec+1)
		}
	}
	sameReads(merged, ref, Temporal{Start: 1, End: 4}, Temporal{Start: 4, End: 8})

	// Evict again, on the page whose sequence number the bad merge reused:
	// its neighbour must survive.
	evictPage(merged, 3)
	evictPage(ref, 3)
	sameReads(merged, ref, Temporal{Start: 1, End: 3}, Temporal{Start: 4, End: 8})
}
