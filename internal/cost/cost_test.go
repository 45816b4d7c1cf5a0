package cost

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/codec"
)

func TestDefaultCoversAllOps(t *testing.T) {
	m := Default()
	ids := []codec.ID{codec.Raw, codec.H264, codec.HEVC}
	for _, from := range ids {
		for _, to := range ids {
			if a := m.Alpha(from, to, 640*360); a <= 0 {
				t.Errorf("alpha(%s->%s) = %f", from, to, a)
			}
		}
	}
}

func TestDefaultRelativeOrder(t *testing.T) {
	// The planner depends on these relationships, not absolute values.
	m := Default()
	px := 640 * 360
	decode := m.Alpha(codec.H264, codec.Raw, px)
	encode := m.Alpha(codec.Raw, codec.H264, px)
	hevcEnc := m.Alpha(codec.Raw, codec.HEVC, px)
	rawCopy := m.Alpha(codec.Raw, codec.Raw, px)
	if decode >= encode {
		t.Errorf("decode (%f) should be cheaper than encode (%f)", decode, encode)
	}
	if encode >= hevcEnc {
		t.Errorf("h264 encode (%f) should be cheaper than hevc (%f)", encode, hevcEnc)
	}
	if rawCopy >= decode {
		t.Errorf("raw copy (%f) should be cheaper than decode (%f)", rawCopy, decode)
	}
}

func TestAlphaInterpolation(t *testing.T) {
	m := &Model{points: map[Op][]point{
		{codec.H264, codec.Raw}: {{1000, 20}, {3000, 10}},
	}}
	if a := m.Alpha(codec.H264, codec.Raw, 2000); math.Abs(a-15) > 1e-9 {
		t.Errorf("midpoint alpha %f, want 15", a)
	}
	if a := m.Alpha(codec.H264, codec.Raw, 10); a != 20 {
		t.Errorf("below-range alpha %f, want clamp 20", a)
	}
	if a := m.Alpha(codec.H264, codec.Raw, 100000); a != 10 {
		t.Errorf("above-range alpha %f, want clamp 10", a)
	}
}

func TestAlphaUnknownOpPessimistic(t *testing.T) {
	m := &Model{points: map[Op][]point{
		{codec.H264, codec.Raw}: {{1000, 20}},
	}}
	if a := m.Alpha(codec.HEVC, codec.H264, 1000); a < 20 {
		t.Errorf("unknown op alpha %f should not undercut known worst", a)
	}
}

func TestTranscodePassthroughCheapest(t *testing.T) {
	m := Default()
	px := 320 * 180
	pass := m.Transcode(codec.H264, codec.H264, px, px, 30)
	conv := m.Transcode(codec.H264, codec.HEVC, px, px, 30)
	if pass >= conv {
		t.Errorf("passthrough (%f) should undercut conversion (%f)", pass, conv)
	}
}

func TestTranscodeScalesWithPixels(t *testing.T) {
	m := Default()
	small := m.Transcode(codec.H264, codec.Raw, 320*180, 320*180, 10)
	large := m.Transcode(codec.H264, codec.Raw, 1920*1080, 1920*1080, 10)
	if large <= small {
		t.Error("cost must grow with pixel count")
	}
}

func TestTranscodeResampleTerm(t *testing.T) {
	m := Default()
	same := m.Transcode(codec.H264, codec.Raw, 640*360, 640*360, 10)
	up := m.Transcode(codec.H264, codec.Raw, 640*360, 1920*1080, 10)
	if up <= same {
		t.Error("resolution change must add resampling cost")
	}
}

func TestLookBack(t *testing.T) {
	if got := LookBack(0, 0); got != 0 {
		t.Errorf("no dependencies: %f", got)
	}
	if got := LookBack(1, 0); got != 1 {
		t.Errorf("one I-frame: %f", got)
	}
	if got := LookBack(0, 2); math.Abs(got-2*Eta) > 1e-9 {
		t.Errorf("two P-frames: %f, want %f", got, 2*Eta)
	}
	if got := LookBack(1, 10); math.Abs(got-(1+10*Eta)) > 1e-9 {
		t.Errorf("mixed: %f", got)
	}
	if got := LookBack(-5, -5); got != 0 {
		t.Errorf("negative counts clamp: %f", got)
	}
	// Dependent frames are strictly more expensive (η = 1.45 > 1).
	if LookBack(0, 5) <= LookBack(5, 0) {
		t.Error("dependent frames should cost more than independent")
	}
}

func TestCalibrateProducesUsableModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing in -short mode")
	}
	m, err := Calibrate([]CalibrationResolution{{64, 36}, {128, 72}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// All 3x3 minus hevc<->h264 combos measured directly plus transcodes.
	if len(m.Ops()) < 8 {
		t.Errorf("calibrated ops: %v", m.Ops())
	}
	// Real measurements must preserve the decode < transcode ordering.
	px := 128 * 72
	dec := m.Alpha(codec.H264, codec.Raw, px)
	xc := m.Alpha(codec.H264, codec.HEVC, px)
	if dec <= 0 || xc <= 0 {
		t.Fatalf("non-positive calibrated alphas: dec=%f xc=%f", dec, xc)
	}
	if dec >= xc {
		t.Errorf("calibrated decode (%f) should be cheaper than transcode (%f)", dec, xc)
	}
}

func TestCalibrateDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing in -short mode")
	}
	m, err := Calibrate(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha(codec.Raw, codec.H264, 320*180) <= 0 {
		t.Error("default calibration produced no usable alpha")
	}
}

// TestDefaultOrderMatchesCalibration holds the hand-seeded table to what the
// codecs actually cost: for every pair of seeded ops, a fresh calibration
// must order them the way Default does. The planner depends on nothing else
// about the seeds, so this is the check that a codec speed-up (or slow-down)
// did not silently invert a planning decision; when it fails, re-seed the
// entries it names from the logged measurements.
//
// What is compared is CPU cost, so the calibration runs on one P: ls fans
// its frames out across GOMAXPROCS, and its wall time against the serial
// codecs would otherwise depend on how many cores happen to be idle. Each
// op's timing is the minimum over the calibrations so far, which sheds
// scheduler noise; calibration repeats (up to maxRuns) while any pair is
// still out of order, so a loaded machine costs time, not a failure. A pair
// measured within tieBand of each other is a tie that either order
// satisfies — two ops that close cost the planner nothing to confuse.
func TestDefaultOrderMatchesCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation cost differs by package, which reorders timings")
	}
	const (
		px      = 640 * 360
		minRuns = 2
		maxRuns = 8
		tieBand = 1.25
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	def := Default()
	ops := def.Ops()
	measured := make(map[Op]float64)
	var flipped []string
	for run := 1; run <= maxRuns; run++ {
		m, err := Calibrate(nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			a := m.Alpha(op.From, op.To, px)
			if best, ok := measured[op]; !ok || a < best {
				measured[op] = a
			}
		}
		flipped = flipped[:0]
		for i, a := range ops {
			for _, b := range ops[i+1:] {
				da, db := def.Alpha(a.From, a.To, px), def.Alpha(b.From, b.To, px)
				ma, mb := measured[a], measured[b]
				if da == db || ma <= mb*tieBand && mb <= ma*tieBand {
					continue
				}
				if (da < db) != (ma < mb) {
					flipped = append(flipped, fmt.Sprintf("%s->%s vs %s->%s: seeded %.1f vs %.1f, measured %.1f vs %.1f",
						a.From, a.To, b.From, b.To, da, db, ma, mb))
				}
			}
		}
		if run >= minRuns && len(flipped) == 0 {
			break
		}
	}
	for _, op := range ops {
		t.Logf("%s->%s: seeded %.1f, measured %.1f ns/pixel", op.From, op.To, def.Alpha(op.From, op.To, px), measured[op])
	}
	for _, f := range flipped {
		t.Errorf("order flipped: %s", f)
	}
}
