package core

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
)

// burstScene synthesizes frames where vehicles appear only inside the
// given frame ranges; everything outside is a static vehicle-free
// backdrop. With gop-aligned bursts this gives the planner GOPs whose
// summaries prove `count >= 1` false, so pruning is observable.
func burstScene(n, w, h int, bursts [][2]int) []*frame.Frame {
	// The backdrop gradient stays well clear of every vehicle-palette
	// color, so frames outside a burst really contain zero detections.
	base := frame.New(w, h, frame.RGB)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base.SetRGB(x, y, byte(60+x*50/w), byte(60+y*40/h), byte(115))
		}
	}
	inBurst := func(i int) bool {
		for _, b := range bursts {
			if i >= b[0] && i < b[1] {
				return true
			}
		}
		return false
	}
	out := make([]*frame.Frame, n)
	for i := 0; i < n; i++ {
		f := base.Clone()
		if inBurst(i) {
			cx := (i*3 + 4) % (w - 10)
			for y := h / 2; y < h/2+6 && y < h; y++ {
				for x := cx; x < cx+8; x++ {
					f.SetRGB(x, y, 220, 30, 30)
				}
			}
		}
		out[i] = f
	}
	return out
}

// baselineMatches is the reference semantics predicate reads must equal:
// a full raw RGB read, analyzed GOP by GOP (motion resets at GOP
// boundaries, like the summaries), filtered client-side over the exact
// frame window.
func baselineMatches(res *ReadResult, gopFrames int, pred Predicate, t0, t1 float64) []Match {
	var infos []FrameInfo
	for i := 0; i < len(res.Frames); i += gopFrames {
		end := i + gopFrames
		if end > len(res.Frames) {
			end = len(res.Frames)
		}
		infos = append(infos, AnalyzeFrames(res.Frames[i:end])...)
	}
	i0, i1 := FrameWindow(res.FPS, t0, t1)
	if i1 > len(res.Frames) {
		i1 = len(res.Frames)
	}
	var out []Match
	for i := i0; i < i1; i++ {
		if !pred.Match(infos[i]) {
			continue
		}
		out = append(out, Match{
			Index: i,
			Time:  float64(i) / float64(res.FPS),
			Frame: res.Frames[i],
			Info:  infos[i],
		})
	}
	return out
}

// matchesEqual asserts two match sets agree in index, time, info, and
// exact frame bytes.
func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index {
			t.Fatalf("%s: match %d index %d, want %d", label, i, g.Index, w.Index)
		}
		if math.Abs(g.Time-w.Time) > 1e-9 {
			t.Errorf("%s: match %d time %g, want %g", label, i, g.Time, w.Time)
		}
		if g.Info.Motion != w.Info.Motion {
			t.Errorf("%s: match %d motion %g, want %g", label, i, g.Info.Motion, w.Info.Motion)
		}
		if !reflect.DeepEqual(g.Info.Detections, w.Info.Detections) {
			t.Errorf("%s: match %d detections differ", label, i)
		}
		if g.Frame.Format != frame.RGB {
			t.Fatalf("%s: match %d format %v, want RGB", label, i, g.Frame.Format)
		}
		if !bytes.Equal(g.Frame.Data, w.Frame.Data) {
			t.Errorf("%s: match %d frame bytes differ from full read", label, i)
		}
	}
}

func TestPredicateParseRoundTrip(t *testing.T) {
	cases := []struct{ in, want string }{
		{"motion > 2", "motion > 2"},
		{"motion>2", "motion > 2"},
		{"count >= 1", "count >= 1"},
		{"count = 0", "count = 0"},
		{"COUNT == 3", "count = 3"},
		{"color ~ 220,30,30", "color ~ 220,30,30 < 50"},
		{"color ~ 220 , 30 , 30 < 60.5", "color ~ 220,30,30 < 60.5"},
		{"motion > 1 and count >= 1", "motion > 1 and count >= 1"},
		{"motion > 1 or count >= 1", "motion > 1 or count >= 1"},
		{"(motion > 1 or count >= 1) and motion <= 5", "(motion > 1 or count >= 1) and motion <= 5"},
		{"motion > 1 and count >= 1 or count = 0", "motion > 1 and count >= 1 or count = 0"},
		{"motion < 0.25", "motion < 0.25"},
	}
	for _, c := range cases {
		p, err := ParsePredicate(c.in)
		if err != nil {
			t.Errorf("parse %q: %v", c.in, err)
			continue
		}
		if p.String() != c.want {
			t.Errorf("parse %q formats as %q, want %q", c.in, p.String(), c.want)
		}
		// Canonical form must reparse to itself (fixed point).
		p2, err := ParsePredicate(p.String())
		if err != nil {
			t.Errorf("reparse %q: %v", p.String(), err)
			continue
		}
		if p2.String() != p.String() {
			t.Errorf("reparse %q formats as %q", p.String(), p2.String())
		}
	}
	bad := []string{
		"", "motion", "motion >", "motion > x", "speed > 2", "motion ! 2",
		"color ~ 300,0,0", "color ~ 1,2", "color ~ 1,2,3 < -5", "motion > 2 and",
		"(motion > 2", "motion > 2)", "color ~ 1,2,3 < nan", "motion > inf",
	}
	for _, in := range bad {
		if p, err := ParsePredicate(in); err == nil {
			t.Errorf("parse %q succeeded as %q, want error", in, p.String())
		}
	}
}

// TestPredicateCanMatchSoundness property-checks the pruning contract on
// random data: whenever any frame in a GOP matches, the GOP's summary
// must report CanMatch — a summary may only prune provably-empty GOPs.
func TestPredicateCanMatchSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randInfos := func() []FrameInfo {
		infos := make([]FrameInfo, 1+rng.Intn(8))
		for i := range infos {
			if i > 0 {
				infos[i].Motion = rng.Float64() * 4
			}
			for d := rng.Intn(3); d > 0; d-- {
				infos[i].Detections = append(infos[i].Detections, Detection{
					Color: [3]float64{rng.Float64() * 255, rng.Float64() * 255, rng.Float64() * 255},
				})
			}
		}
		return infos
	}
	for trial := 0; trial < 300; trial++ {
		infos := randInfos()
		sum := Summarize(infos)
		pred, err := ParsePredicate(randPredString(rng))
		if err != nil {
			t.Fatalf("generated predicate: %v", err)
		}
		any := false
		for _, fi := range infos {
			if pred.Match(fi) {
				any = true
				break
			}
		}
		if any && !pred.CanMatch(sum) {
			t.Fatalf("trial %d: %q matches a frame but CanMatch pruned the GOP (summary %+v)",
				trial, pred, *sum)
		}
	}
}

// randPredString generates a random predicate over realistic value
// ranges, including and/or combinations.
func randPredString(rng *rand.Rand) string {
	ops := []string{"<", "<=", ">", ">=", "=="}
	term := func() string {
		switch rng.Intn(3) {
		case 0:
			return "motion " + ops[rng.Intn(len(ops))] + " " + []string{"0", "0.05", "0.2", "1", "3"}[rng.Intn(5)]
		case 1:
			return "count " + ops[rng.Intn(len(ops))] + " " + []string{"0", "1", "2"}[rng.Intn(3)]
		default:
			colors := []string{"220,30,30", "210,40,40", "40,60,200", "128,128,128"}
			dists := []string{"30", "50", "80", "120"}
			return "color ~ " + colors[rng.Intn(len(colors))] + " < " + dists[rng.Intn(len(dists))]
		}
	}
	switch rng.Intn(4) {
	case 0:
		return term()
	case 1:
		return term() + " and " + term()
	case 2:
		return term() + " or " + term()
	default:
		return "(" + term() + " or " + term() + ") and " + term()
	}
}

func TestSummaryCodecRoundTrip(t *testing.T) {
	sums := []*GOPSummary{
		{},
		{MinMotion: 0, MaxMotion: 2.75, MinCount: 0, MaxCount: 3, ColorBits: 1<<63 | 5},
		{MinMotion: 0.5, MaxMotion: 0.5, MinCount: 1, MaxCount: 1, ColorBits: 1},
	}
	for i, s := range sums {
		b := EncodeSummary(s)
		got, err := DecodeSummary(b)
		if err != nil {
			t.Fatalf("summary %d: decode: %v", i, err)
		}
		if *got != *s {
			t.Errorf("summary %d: round trip %+v, want %+v", i, *got, *s)
		}
		if !bytes.Equal(EncodeSummary(got), b) {
			t.Errorf("summary %d: re-encode not byte-identical", i)
		}
		// JSON path (the catalog's persisted form).
		j, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back GOPSummary
		if err := back.UnmarshalJSON(j); err != nil {
			t.Fatalf("summary %d: json: %v", i, err)
		}
		if back != *s {
			t.Errorf("summary %d: json round trip %+v, want %+v", i, back, *s)
		}
	}
	// Every single-byte corruption must be rejected (the CRC covers the
	// payload; header bytes fail their own checks).
	good := EncodeSummary(sums[1])
	for i := range good {
		for _, delta := range []byte{1, 0x80} {
			bad := append([]byte(nil), good...)
			bad[i] ^= delta
			if _, err := DecodeSummary(bad); err == nil {
				t.Fatalf("corrupting byte %d (^%#x) accepted", i, delta)
			}
		}
	}
	if _, err := DecodeSummary(good[:summaryLen-1]); err == nil {
		t.Error("truncated summary accepted")
	}
	if _, err := DecodeSummary(nil); err == nil {
		t.Error("nil summary accepted")
	}
}

// TestReadWhereParity is the core equivalence property: over random
// predicates and intervals, ReadWhere returns exactly the frames a full
// raw read filtered client-side would — byte-identical pixels included —
// for both raw and compressed originals.
func TestReadWhereParity(t *testing.T) {
	const (
		n, w, h = 48, 64, 48
		fps     = 8
		gop     = 8
	)
	bursts := [][2]int{{8, 16}, {26, 38}}
	for _, cd := range []codec.ID{codec.Raw, codec.H264} {
		t.Run(string(cd), func(t *testing.T) {
			s := newStore(t, Options{GOPFrames: gop, DisableCache: true})
			writeVideo(t, s, "v", burstScene(n, w, h, bursts), fps, cd)
			if !cd.Compressed() {
				// Raw ingest defers summarization to maintenance; backfill
				// so the parity trials below also exercise pruning.
				if err := s.Maintain(); err != nil {
					t.Fatal(err)
				}
			}
			full, err := s.Read("v", ReadSpec{})
			if err != nil {
				t.Fatal(err)
			}
			dur := float64(n) / float64(fps)
			rng := rand.New(rand.NewSource(int64(len(cd))))
			for trial := 0; trial < 25; trial++ {
				predStr := randPredString(rng)
				pred, err := ParsePredicate(predStr)
				if err != nil {
					t.Fatal(err)
				}
				t0, t1 := 0.0, 0.0 // whole video
				if trial%2 == 1 {
					t0 = rng.Float64() * dur * 0.8
					t1 = t0 + rng.Float64()*(dur-t0)
				}
				res, err := s.ReadWhere("v", pred, t0, t1)
				if err != nil {
					t.Fatalf("ReadWhere(%q, [%g,%g)): %v", predStr, t0, t1, err)
				}
				end := t1
				if end <= 0 {
					end = dur
				}
				want := baselineMatches(full, gop, pred, t0, end)
				matchesEqual(t, predStr, res.Matches, want)

				st := res.Stats
				if st.FramesMatched != len(res.Matches) {
					t.Errorf("%q: FramesMatched %d != %d matches", predStr, st.FramesMatched, len(res.Matches))
				}
				if st.GOPsDecoded > st.GOPsConsidered-st.GOPsSkipped {
					t.Errorf("%q: decoded %d > considered %d - skipped %d",
						predStr, st.GOPsDecoded, st.GOPsConsidered, st.GOPsSkipped)
				}
				if st.NoSummary != 0 {
					t.Errorf("%q: %d summaryless GOPs on a freshly written store", predStr, st.NoSummary)
				}
				if res.Width != w || res.Height != h || res.FPS != fps {
					t.Errorf("%q: geometry %dx%d@%d", predStr, res.Width, res.Height, res.FPS)
				}
			}
		})
	}
}

// TestReadStreamWhereParity pins the streaming delivery path to the batch
// path: same matches in the same order, same counters at EOF.
func TestReadStreamWhereParity(t *testing.T) {
	const n, fps, gop = 48, 8, 8
	s := newStore(t, Options{GOPFrames: gop, DisableCache: true})
	writeVideo(t, s, "v", burstScene(n, 64, 48, [][2]int{{0, 8}, {16, 24}, {40, 48}}), fps, codec.H264)
	for _, predStr := range []string{"count >= 1", "motion > 0.01", "count == 0 and motion <= 0.5"} {
		pred, err := ParsePredicate(predStr)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.ReadWhere("v", pred, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.ReadStreamWhere(context.Background(), "v", pred, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Match
		for {
			b, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%q: Next: %v", predStr, err)
			}
			if len(b.Matches) == 0 {
				t.Fatalf("%q: empty batch delivered", predStr)
			}
			streamed = append(streamed, b.Matches...)
		}
		matchesEqual(t, predStr, streamed, batch.Matches)
		ss, bs := st.Stats(), batch.Stats
		if ss.GOPsConsidered != bs.GOPsConsidered || ss.GOPsSkipped != bs.GOPsSkipped ||
			ss.GOPsDecoded != bs.GOPsDecoded || ss.FramesScanned != bs.FramesScanned ||
			ss.FramesMatched != bs.FramesMatched || ss.NoSummary != bs.NoSummary {
			t.Errorf("%q: stream stats %+v, batch stats %+v", predStr, ss, bs)
		}
		st.Close()
	}
	// Close before drain must release the stream with an error, not hang.
	pred, _ := ParsePredicate("count >= 0")
	st, err := s.ReadStreamWhere(context.Background(), "v", pred, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := st.Next(); err == nil || err == io.EOF {
		t.Errorf("Next after Close: %v", err)
	}
}

// TestReadWherePruning verifies the planner actually skips GOPs whose
// summary bounds refute the predicate — the point of the subsystem — and
// that pruning is exact on burst-structured videos: only burst GOPs are
// decoded, and a window over vehicle-free GOPs decodes and reads nothing.
// The spread cases put 1, 2 and 5 active one-second GOPs out of 20 at
// stride 20/k starting at stride/2 (5%, 10% and 25% selectivity), so a
// win cannot come from one lucky contiguous range.
func TestReadWherePruning(t *testing.T) {
	const fps, gop = 8, 8
	cases := []struct {
		name   string
		gops   int
		active []int      // GOP indices holding vehicles
		empty  [2]float64 // a window (seconds) over vehicle-free GOPs only
	}{
		{"burst", 8, []int{2}, [2]float64{4, 6}},
		{"spread1of20", 20, []int{10}, [2]float64{0, 10}},
		{"spread2of20", 20, []int{5, 15}, [2]float64{6, 15}},
		{"spread5of20", 20, []int{2, 6, 10, 14, 18}, [2]float64{3, 6}},
	}
	pred, err := ParsePredicate("count >= 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bursts [][2]int
			for _, g := range tc.active {
				bursts = append(bursts, [2]int{g * gop, (g + 1) * gop})
			}
			s := newStore(t, Options{GOPFrames: gop, DisableCache: true})
			writeVideo(t, s, "v", burstScene(tc.gops*gop, 64, 48, bursts), fps, codec.H264)

			res, err := s.ReadWhere("v", pred, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			st, k := res.Stats, len(tc.active)
			if st.GOPsConsidered != tc.gops {
				t.Fatalf("considered %d GOPs, want %d", st.GOPsConsidered, tc.gops)
			}
			if st.GOPsDecoded != k {
				t.Errorf("decoded %d GOPs, want %d", st.GOPsDecoded, k)
			}
			if st.GOPsSkipped != tc.gops-k {
				t.Errorf("skipped %d GOPs, want %d (summaries: %+v)", st.GOPsSkipped, tc.gops-k, st)
			}
			if st.FramesScanned != k*gop {
				t.Errorf("scanned %d frames, want %d", st.FramesScanned, k*gop)
			}
			if len(res.Matches) != k*gop {
				t.Errorf("%d matches, want %d", len(res.Matches), k*gop)
			}
			for _, m := range res.Matches {
				if !slices.Contains(tc.active, m.Index/gop) {
					t.Errorf("match at frame %d outside every burst", m.Index)
				}
			}

			res, err = s.ReadWhere("v", pred, tc.empty[0], tc.empty[1])
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.GOPsDecoded != 0 || len(res.Matches) != 0 {
				t.Errorf("windowed query decoded %d GOPs, matched %d", res.Stats.GOPsDecoded, len(res.Matches))
			}
			if res.Stats.BytesRead != 0 {
				t.Errorf("pruned-out query read %d bytes", res.Stats.BytesRead)
			}
		})
	}
}

func TestReadWhereValidation(t *testing.T) {
	s := newStore(t, Options{})
	writeVideo(t, s, "v", scene(16, 48, 32, 3), 4, codec.Raw)
	pred, _ := ParsePredicate("count >= 0")

	if _, err := s.ReadWhere("missing", pred, 0, 0); err != ErrNotFound {
		t.Errorf("missing video: %v", err)
	}
	if _, err := s.ReadWhere("v", nil, 0, 0); err == nil {
		t.Error("nil predicate accepted")
	}
	if _, err := s.ReadWhere("v", pred, -1, 2); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := s.ReadWhere("v", pred, 3, 2); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := s.ReadWhere("v", pred, 0, 100); err == nil {
		t.Error("interval past the end accepted")
	}
	// An empty (never-written) video yields an empty result, not an error.
	if err := s.Create("empty", 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.ReadWhere("empty", pred, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.Stats.GOPsConsidered != 0 {
		t.Errorf("empty video: %+v", res.Stats)
	}
	// Cancelled context refuses to start.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ReadWhereContext(ctx, "v", pred, 0, 0); err == nil {
		t.Error("cancelled context accepted")
	}
}

// TestPreSummaryBackfill pins the compatibility story for stores written
// before summaries existed (and for WriteEncoded, which never computes
// them): queries stay correct via conservative full decode, and Maintain
// backfills summaries incrementally until pruning works.
func TestPreSummaryBackfill(t *testing.T) {
	const n, w, h, fps, gop = 64, 64, 48, 8, 8
	frames := burstScene(n, w, h, [][2]int{{16, 24}})
	if len(frames)%gop != 0 {
		t.Fatal("scene must be GOP aligned")
	}
	dir := t.TempDir()
	opts := Options{GOPFrames: gop, DisableCache: true, DisableDeferred: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	var gops [][]byte
	for i := 0; i < n; i += gop {
		data, _, err := codec.EncodeGOP(frames[i:i+gop], codec.H264, codec.DefaultQuality)
		if err != nil {
			t.Fatal(err)
		}
		gops = append(gops, data)
	}
	if err := s.WriteEncoded("v", fps, gops); err != nil {
		t.Fatal(err)
	}

	pred, err := ParsePredicate("count >= 1")
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := baselineMatches(full, gop, pred, 0, float64(n)/float64(fps))

	// Before backfill: every candidate GOP is summaryless, nothing is
	// pruned, and results are still exact.
	res, err := s.ReadWhere("v", pred, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "pre-backfill", res.Matches, want)
	if res.Stats.NoSummary != n/gop || res.Stats.GOPsSkipped != 0 {
		t.Fatalf("pre-backfill stats %+v, want %d summaryless and 0 skipped", res.Stats, n/gop)
	}
	if res.Stats.GOPsDecoded != n/gop {
		t.Errorf("pre-backfill decoded %d GOPs, want all %d", res.Stats.GOPsDecoded, n/gop)
	}

	// Maintain backfills up to backfillBudget GOPs per pass.
	for pass := 0; pass < 8; pass++ {
		if err := s.Maintain(); err != nil {
			t.Fatal(err)
		}
		res, err = s.ReadWhere("v", pred, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.NoSummary == 0 {
			break
		}
	}
	if res.Stats.NoSummary != 0 {
		t.Fatalf("summaries not fully backfilled: %+v", res.Stats)
	}
	matchesEqual(t, "post-backfill", res.Matches, want)
	if res.Stats.GOPsSkipped != n/gop-1 {
		t.Errorf("post-backfill skipped %d GOPs, want %d", res.Stats.GOPsSkipped, n/gop-1)
	}

	// Backfilled summaries must survive a reopen (they ride the catalog).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err = s2.ReadWhere("v", pred, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "post-reopen", res.Matches, want)
	if res.Stats.NoSummary != 0 || res.Stats.GOPsSkipped != n/gop-1 {
		t.Errorf("post-reopen stats %+v", res.Stats)
	}
}

// TestPredicateReadsConcurrentWithWriter stresses predicate reads racing
// a pipelined writer (run under -race in CI): every result must be an
// internally consistent snapshot of some committed prefix — monotonic
// indices, exact per-frame info, frames from the committed scene.
func TestPredicateReadsConcurrentWithWriter(t *testing.T) {
	const n, w, h, fps, gop = 64, 48, 32, 8, 8
	frames := burstScene(n, w, h, [][2]int{{0, n}}) // vehicles everywhere
	s := newStore(t, Options{GOPFrames: gop, DisableCache: true, Workers: 4})
	if err := s.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	pred, err := ParsePredicate("count >= 1")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if r == 2 { // one reader drives the streaming path
					st, err := s.ReadStreamWhere(context.Background(), "v", pred, 0, 0)
					if err != nil {
						t.Errorf("ReadStreamWhere: %v", err)
						return
					}
					last := -1
					for {
						b, err := st.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Errorf("stream Next: %v", err)
							return
						}
						for _, m := range b.Matches {
							if m.Index <= last {
								t.Errorf("stream indices not increasing: %d after %d", m.Index, last)
								return
							}
							last = m.Index
						}
					}
					continue
				}
				res, err := s.ReadWhere("v", pred, 0, 0)
				if err != nil {
					t.Errorf("ReadWhere: %v", err)
					return
				}
				last := -1
				for _, m := range res.Matches {
					if m.Index <= last {
						t.Errorf("indices not increasing: %d after %d", m.Index, last)
						return
					}
					last = m.Index
					if m.Index >= n {
						t.Errorf("match %d beyond written frames", m.Index)
						return
					}
					if m.Info.Count() < 1 {
						t.Errorf("match %d violates predicate", m.Index)
						return
					}
					if len(m.Frame.Data) != w*h*3 {
						t.Errorf("match %d frame is %d bytes", m.Index, len(m.Frame.Data))
						return
					}
				}
				if res.Stats.GOPsDecoded > res.Stats.GOPsConsidered {
					t.Errorf("decoded %d > considered %d", res.Stats.GOPsDecoded, res.Stats.GOPsConsidered)
					return
				}
			}
		}(r)
	}

	wr, err := s.OpenWriter("v", WriteSpec{FPS: fps, Codec: codec.H264})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 4 {
		if err := wr.Append(frames[i : i+4]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	// Quiescent check: the final state matches the baseline exactly.
	full, err := s.Read("v", ReadSpec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ReadWhere("v", pred, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "post-write", res.Matches, baselineMatches(full, gop, pred, 0, float64(n)/fps))
	if res.Stats.NoSummary != 0 {
		t.Errorf("%d GOPs missing summaries after pipelined write", res.Stats.NoSummary)
	}
}

// FuzzPredicateParse asserts the parser never panics and that successful
// parses have a stable canonical form: parse → format → parse is a fixed
// point.
func FuzzPredicateParse(f *testing.F) {
	seeds := []string{
		"motion > 2",
		"count >= 1",
		"count == 0",
		"color ~ 220,30,30 < 60",
		"color ~ 220 , 30 , 30",
		"motion > 1 and count >= 1",
		"(motion < 0.5 or count == 0) and color ~ 40,60,200 < 80",
		"motion > 1 or count >= 1 or motion <= 0",
		"motion>=0.125and count<2",
		"", "motion", "((()))", "color ~ 999,0,0 < 1", "and and and",
		"motion > 1e308", "count >= -0", "color~1,2,3<4",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParsePredicate(in)
		if err != nil {
			return
		}
		canon := p.String()
		p2, err := ParsePredicate(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, in, err)
		}
		if p2.String() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", in, canon, p2.String())
		}
		// Parsed predicates must be safely evaluable on arbitrary records.
		p.Match(FrameInfo{})
		p.Match(FrameInfo{Motion: 1.5, Detections: []Detection{{Color: [3]float64{220, 30, 30}}}})
		p.CanMatch(&GOPSummary{MaxMotion: 3, MaxCount: 2, ColorBits: ^uint64(0)})
	})
}

// FuzzSummaryCodec asserts DecodeSummary never panics on arbitrary bytes
// and that every accepted input is exactly the canonical encoding of the
// summary it decodes to.
func FuzzSummaryCodec(f *testing.F) {
	f.Add(EncodeSummary(&GOPSummary{}))
	f.Add(EncodeSummary(&GOPSummary{MaxMotion: 2.5, MinCount: 1, MaxCount: 4, ColorBits: 0xdeadbeef}))
	f.Add([]byte{})
	f.Add([]byte{summaryMagic, summaryVersion, 0, 0})
	corrupted := EncodeSummary(&GOPSummary{MaxMotion: 1})
	corrupted[5] ^= 0xff
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSummary(b)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSummary(s), b) {
			t.Fatalf("accepted non-canonical encoding %x of %+v", b, *s)
		}
		if s.MinMotion > s.MaxMotion || s.MinCount > s.MaxCount {
			t.Fatalf("accepted inverted bounds %+v", *s)
		}
	})
}
