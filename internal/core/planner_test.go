package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/frame"
)

func TestNRectOps(t *testing.T) {
	full := FullNRect()
	if !full.IsFull() {
		t.Error("full rect not full")
	}
	half := NRect{0, 0, 0.5, 1}
	if half.IsFull() {
		t.Error("half rect reported full")
	}
	if !full.Contains(half) {
		t.Error("full must contain half")
	}
	if half.Contains(full) {
		t.Error("half cannot contain full")
	}
	if (NRect{0.3, 0.3, 0.3, 0.8}).Empty() != true {
		t.Error("zero-width rect not empty")
	}
}

func TestNRectPixelRoundTrip(t *testing.T) {
	// Property: normalizing a pixel rect and converting back recovers it.
	prop := func(x0, y0, dx, dy uint8) bool {
		w, h := 640, 480
		r := frame.Rect{
			X0: int(x0) % 320, Y0: int(y0) % 240,
		}
		r.X1 = r.X0 + int(dx)%300 + 1
		r.Y1 = r.Y0 + int(dy)%200 + 1
		back := Normalize(r, w, h).Pixels(w, h)
		return back == r
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoverageMergesContiguousGOPs(t *testing.T) {
	p := &PhysMeta{FPS: 4, Start: 0, GOPs: []GOPMeta{
		{Seq: 0, StartFrame: 0, Frames: 8},
		{Seq: 1, StartFrame: 8, Frames: 8},
		{Seq: 3, StartFrame: 24, Frames: 8}, // hole: seq 2 evicted
	}}
	spans := coverage(p)
	if len(spans) != 2 {
		t.Fatalf("coverage %v", spans)
	}
	if spans[0].a != 0 || spans[0].b != 4 {
		t.Errorf("first span [%f, %f)", spans[0].a, spans[0].b)
	}
	if spans[1].a != 6 || spans[1].b != 8 {
		t.Errorf("second span [%f, %f)", spans[1].a, spans[1].b)
	}
	if !covers(spans, 0.5, 3.5) {
		t.Error("covers within first span failed")
	}
	if covers(spans, 3, 7) {
		t.Error("covers across the hole should fail")
	}
}

func TestPhysMetaEndAndBytes(t *testing.T) {
	p := &PhysMeta{FPS: 8, Start: 2, GOPs: []GOPMeta{
		{StartFrame: 0, Frames: 16, Bytes: 100},
		{StartFrame: 16, Frames: 8, Bytes: 50},
	}}
	if p.End() != 5 { // 2s + 24/8
		t.Errorf("end %f", p.End())
	}
	if p.Bytes() != 150 {
		t.Errorf("bytes %d", p.Bytes())
	}
}

func TestIntervalsForPartitionsAtTransitions(t *testing.T) {
	mk := func(start float64, frames int) *PhysMeta {
		return &PhysMeta{FPS: 4, Start: start, GOPs: []GOPMeta{{StartFrame: 0, Frames: frames}}}
	}
	// m0 covers [0, 10); cached views cover [3, 6) and [7, 9.5).
	cands := []*PhysMeta{mk(0, 40), mk(3, 12), mk(7, 10)}
	ivs := intervalsFor(cands, 2, 8)
	// Expected transition points within (2, 8): 3, 6, 7 -> intervals
	// [2,3) [3,6) [6,7) [7,8).
	if len(ivs) != 4 {
		t.Fatalf("intervals %v", ivs)
	}
	wantStarts := []float64{2, 3, 6, 7}
	for i, iv := range ivs {
		if iv[0] != wantStarts[i] {
			t.Errorf("interval %d starts at %f, want %f", i, iv[0], wantStarts[i])
		}
	}
}

func TestEntryLookbackZeroAtGOPBoundary(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 64, 48, 70), 4, codec.H264)
	_, phys, _ := s.Info("v")
	p := &phys[0]
	if lb := s.entryLookback(p, 0); lb != 0 {
		t.Errorf("lookback at GOP start = %f", lb)
	}
	if lb := s.entryLookback(p, 2.0); lb != 0 { // GOPFrames=8 at 4fps = 2s GOPs
		t.Errorf("lookback at second GOP boundary = %f", lb)
	}
	mid := s.entryLookback(p, 1.0) // 4 frames into an 8-frame GOP
	if mid <= 0 {
		t.Errorf("mid-GOP lookback = %f, want > 0", mid)
	}
	deeper := s.entryLookback(p, 1.75) // 7 frames in
	if deeper <= mid {
		t.Errorf("deeper entry (%f) should cost more than mid (%f)", deeper, mid)
	}
}

func TestEntryLookbackRawIsFree(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(8, 64, 48, 71), 4, codec.Raw)
	_, phys, _ := s.Info("v")
	if lb := s.entryLookback(&phys[0], 1.25); lb != 0 {
		t.Errorf("raw lookback = %f", lb)
	}
}

func TestUseMSEUpsamplePenalty(t *testing.T) {
	small := &PhysMeta{Width: 32, Height: 24, ROI: FullNRect()}
	big := &PhysMeta{Width: 128, Height: 96, ROI: FullNRect()}
	r := resolvedSpec{roi: FullNRect(), roiW: 128, roiH: 96}
	if useMSE(small, r) <= useMSE(big, r) {
		t.Error("upsampling a small view must carry a quality penalty")
	}
	// Downsampling carries no penalty.
	rSmall := resolvedSpec{roi: FullNRect(), roiW: 32, roiH: 24}
	if useMSE(big, rSmall) != 0 {
		t.Errorf("downsample penalty = %f, want 0", useMSE(big, rSmall))
	}
}

func TestPlanPrefersPassthroughFragment(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(32, 64, 48, 72), 4, codec.H264)
	// Cache a full-range hevc copy.
	if _, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC}}); err != nil {
		t.Fatal(err)
	}
	// Re-plan the same read: the single cheapest plan must be the cached
	// hevc view (passthrough), not the original.
	res, err := s.Read("v", ReadSpec{P: Physical{Codec: codec.HEVC}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanRuns != 1 {
		t.Errorf("plan runs %d", res.Stats.PlanRuns)
	}
	if res.Stats.GOPsDecoded != 0 {
		t.Errorf("passthrough plan decoded %d GOPs", res.Stats.GOPsDecoded)
	}
}

func TestEvictionNeverExceedsBudgetProperty(t *testing.T) {
	// Property: after any random sequence of reads, stored bytes respect
	// the budget.
	s := newStore(t, Options{BudgetMultiple: 2})
	writeVideo(t, s, "v", scene(32, 64, 48, 73), 4, codec.H264)
	v, _, _ := s.Info("v")
	rng := rand.New(rand.NewSource(74))
	for i := 0; i < 12; i++ {
		t1 := float64(rng.Intn(6))
		spec := ReadSpec{T: Temporal{Start: t1, End: t1 + 1 + float64(rng.Intn(2))}}
		switch rng.Intn(3) {
		case 0:
			spec.P.Codec = codec.HEVC
		case 1:
			spec.S = Spatial{Width: 32, Height: 24}
		}
		if _, err := s.Read("v", spec); err != nil {
			t.Fatal(err)
		}
		total, err := s.TotalBytes("v")
		if err != nil {
			t.Fatal(err)
		}
		if total > v.Budget {
			t.Fatalf("read %d: stored %d exceeds budget %d", i, total, v.Budget)
		}
	}
}

func TestGopContainingEdges(t *testing.T) {
	p := &PhysMeta{FPS: 4, GOPs: []GOPMeta{
		{Seq: 0, StartFrame: 0, Frames: 8},
		{Seq: 1, StartFrame: 8, Frames: 8},
	}}
	if g := gopContaining(p, 0); g == nil || g.Seq != 0 {
		t.Error("frame 0 lookup")
	}
	if g := gopContaining(p, 8); g == nil || g.Seq != 1 {
		t.Error("boundary frame lookup")
	}
	if g := gopContaining(p, 16); g == nil || g.Seq != 1 {
		t.Error("past-the-end should clamp to last GOP")
	}
	empty := &PhysMeta{FPS: 4}
	if g := gopContaining(empty, 0); g != nil {
		t.Error("empty phys should return nil")
	}
}

func TestResolveDefaults(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 64, 48, 75), 4, codec.H264)
	vs := s.acquire("v")
	r, err := s.resolve(vs.meta, ReadSpec{})
	vs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if r.t1 != 0 || r.t2 != 4 || r.outW != 64 || r.outH != 48 || r.outFPS != 4 {
		t.Errorf("defaults %+v", r)
	}
	if r.codec != codec.Raw {
		t.Errorf("default codec %s", r.codec)
	}
	if r.minPSNR != defaultMinPSNR {
		t.Errorf("default min psnr %f", r.minPSNR)
	}
}
