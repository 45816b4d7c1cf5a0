package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/codec"
	"repro/internal/cost"
	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/smt"
)

// resolvedSpec is a ReadSpec with defaults applied against a video.
type resolvedSpec struct {
	t1, t2  float64
	outW    int // full-frame output resolution
	outH    int
	roi     NRect // requested region, normalized
	outFPS  int
	codec   codec.ID
	quality int
	minPSNR float64
	format  frame.PixelFormat // pixel format of every output frame
	roiW    int               // output pixel dimensions of the ROI
	roiH    int
}

// coverSpan is a contiguous covered time range of a physical video
// (eviction can leave holes between GOPs).
type coverSpan struct{ a, b float64 }

// planStep is one interval of a read plan with its chosen fragment.
type planStep struct {
	phys      *PhysMeta
	a, b      float64
	transcode float64
	entry     float64 // look-back cost paid when entering the fragment here
}

// Plan is the output of fragment selection.
type Plan struct {
	steps  []planStep
	Cost   float64
	Runs   int    // contiguous same-fragment runs (the paper's "fragments")
	Method string // "smt" or "greedy"
}

// Fragments returns the physical video IDs used by the plan, in order.
func (p *Plan) Fragments() []int {
	var out []int
	for i, st := range p.steps {
		if i == 0 || p.steps[i-1].phys.ID != st.phys.ID {
			out = append(out, st.phys.ID)
		}
	}
	return out
}

const timeEps = 1e-7

// resolve validates and defaults a ReadSpec against a video.
func (s *Store) resolve(v *VideoMeta, spec ReadSpec) (resolvedSpec, error) {
	var r resolvedSpec
	if v.Original < 0 {
		return r, fmt.Errorf("core: video %s has no data", v.Name)
	}
	r.t1 = spec.T.Start
	r.t2 = spec.T.End
	if r.t2 <= 0 {
		r.t2 = v.Duration
	}
	if r.t1 < -timeEps || r.t2 > v.Duration+timeEps || r.t2 <= r.t1 {
		// The paper: VSS returns an error for reads extending outside the
		// temporal interval of m0.
		return r, fmt.Errorf("%w: read interval [%f, %f) outside video [0, %f)", ErrInvalidSpec, r.t1, r.t2, v.Duration)
	}
	r.outW, r.outH = spec.S.Width, spec.S.Height
	if r.outW == 0 {
		r.outW = v.Width
	}
	if r.outH == 0 {
		r.outH = v.Height
	}
	if r.outW <= 0 || r.outH <= 0 {
		return r, fmt.Errorf("%w: invalid output resolution %dx%d", ErrInvalidSpec, r.outW, r.outH)
	}
	r.roi = FullNRect()
	if spec.S.ROI != nil {
		r.roi = Normalize(*spec.S.ROI, r.outW, r.outH)
		if r.roi.Empty() || r.roi.X0 < 0 || r.roi.Y0 < 0 || r.roi.X1 > 1 || r.roi.Y1 > 1 {
			return r, fmt.Errorf("%w: invalid ROI %+v", ErrInvalidSpec, *spec.S.ROI)
		}
	}
	px := r.roi.Pixels(r.outW, r.outH)
	r.roiW, r.roiH = px.Dx(), px.Dy()
	if r.roiW <= 0 || r.roiH <= 0 {
		return r, fmt.Errorf("%w: ROI resolves to empty pixel region", ErrInvalidSpec)
	}
	r.outFPS = spec.T.FPS
	if r.outFPS == 0 {
		r.outFPS = v.FPS
	}
	if r.outFPS < 0 || r.outFPS > v.FPS {
		return r, fmt.Errorf("%w: output fps %d not in (0, %d]", ErrInvalidSpec, r.outFPS, v.FPS)
	}
	r.codec = spec.P.Codec
	if r.codec == "" {
		r.codec = codec.Raw
	}
	if !r.codec.Valid() {
		return r, fmt.Errorf("%w: unknown codec %q", ErrInvalidSpec, r.codec)
	}
	r.quality = effectiveQuality(spec.P.Quality)
	r.minPSNR = spec.P.MinPSNR
	if r.minPSNR == 0 {
		r.minPSNR = defaultMinPSNR
	}
	// Frames leave the read in one format: YUV420 for every compressed
	// codec (what the encoders take and what admission records), the
	// requested layout for raw output. Its chroma subsampling bounds the
	// sizes the read can produce.
	r.format = spec.P.Format
	if r.codec.Compressed() {
		r.format = frame.YUV420
	}
	if err := r.format.Validate(r.roiW, r.roiH); err != nil {
		return r, fmt.Errorf("%w: %s output: %v", ErrInvalidSpec, r.codec, err)
	}
	return r, nil
}

// coverage returns the contiguous covered time spans of a physical video.
func coverage(p *PhysMeta) []coverSpan {
	if len(p.GOPs) == 0 {
		return nil
	}
	var out []coverSpan
	for i := range p.GOPs {
		a, b := p.gopSpan(&p.GOPs[i])
		if n := len(out); n > 0 && a <= out[n-1].b+timeEps {
			if b > out[n-1].b {
				out[n-1].b = b
			}
			continue
		}
		out = append(out, coverSpan{a, b})
	}
	return out
}

// covers reports whether the spans fully contain [a, b).
func covers(spans []coverSpan, a, b float64) bool {
	for _, s := range spans {
		if s.a <= a+timeEps && s.b >= b-timeEps {
			return true
		}
	}
	return false
}

// useMSE estimates the quality loss of answering the request from p: its
// accumulated MSE bound plus an upsampling penalty when p's resolution is
// below the requested output (the paper's example: a 32x32 fragment is
// unacceptable for a 4K read).
func useMSE(p *PhysMeta, r resolvedSpec) float64 {
	m := p.MSE
	// Pixels p devotes to the requested region vs pixels requested.
	pw := float64(p.Width) * (r.roi.X1 - r.roi.X0) / (p.ROI.X1 - p.ROI.X0)
	ph := float64(p.Height) * (r.roi.Y1 - r.roi.Y0) / (p.ROI.Y1 - p.ROI.Y0)
	srcPx := pw * ph
	dstPx := float64(r.roiW * r.roiH)
	if srcPx+1 < dstPx {
		// Empirical upsampling penalty: MSE grows with the magnification
		// factor. Calibrated so 2x-per-axis upsampling of detailed content
		// lands near 30 dB (near-lossless boundary).
		scale := dstPx / srcPx
		m = quality.ComposeMSE(m, 16*(scale-1))
	}
	return m
}

// candidatesFor returns the physical videos eligible to serve the request:
// they must cover the requested ROI and pass the quality gate u >= ε. The
// original is always eligible (it defines baseline quality). Caller holds
// the video's lock.
func (s *Store) candidatesFor(vs *videoState, r resolvedSpec) []*PhysMeta {
	maxMSE := quality.MSEFromPSNR(r.minPSNR)
	var out []*PhysMeta
	for _, p := range vs.phys {
		if len(p.GOPs) == 0 {
			continue
		}
		if !p.ROI.Contains(r.roi) {
			continue
		}
		if p.FPS < r.outFPS {
			continue // a lower-frame-rate view cannot serve this read
		}
		if !p.Orig && useMSE(p, r) > maxMSE {
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// intervalsFor partitions [t1, t2) at the transition points contributed by
// candidate coverage boundaries (Section 3.1: "the collective start and end
// points of the physical videos form a set of transition points").
func intervalsFor(cands []*PhysMeta, t1, t2 float64) [][2]float64 {
	points := []float64{t1, t2}
	for _, p := range cands {
		for _, sp := range coverage(p) {
			for _, t := range []float64{sp.a, sp.b} {
				if t > t1+timeEps && t < t2-timeEps {
					points = append(points, t)
				}
			}
		}
	}
	sort.Float64s(points)
	var out [][2]float64
	for i := 1; i < len(points); i++ {
		if points[i]-points[i-1] > timeEps {
			out = append(out, [2]float64{points[i-1], points[i]})
		}
	}
	return out
}

// entryLookback computes c_l for entering fragment p at time t: the cost
// of decoding the GOP frames that precede the entry point, expressed in
// the same units as transcode cost (per-pixel decode cost times pixels).
func (s *Store) entryLookback(p *PhysMeta, t float64) float64 {
	if !p.Codec.Compressed() {
		return 0 // raw GOP frames are independently decodable
	}
	fps := float64(p.FPS)
	local := int(math.Round((t - p.Start) * fps))
	for i := range p.GOPs {
		g := &p.GOPs[i]
		if local >= g.StartFrame && local < g.StartFrame+g.Frames {
			before := local - g.StartFrame
			if before == 0 {
				return 0
			}
			// One independent frame (the GOP's I-frame) plus before-1
			// dependent frames must be decoded and discarded.
			frames := cost.LookBack(1, before-1)
			perFrame := costModel.Alpha(p.Codec, codec.Raw, p.Width*p.Height) * float64(p.Width*p.Height)
			return frames * perFrame
		}
	}
	return 0
}

// stepCosts fills transcode cost for a fragment serving one interval.
func (s *Store) stepCost(p *PhysMeta, r resolvedSpec, a, b float64) float64 {
	n := int(math.Round((b - a) * float64(p.FPS)))
	if n < 1 {
		n = 1
	}
	srcPx := p.Width * p.Height
	dstPx := r.roiW * r.roiH
	return costModel.Transcode(p.Codec, r.codec, srcPx, dstPx, n)
}

// plan selects fragments for a read using the SMT solver (or the greedy
// baseline when Options.GreedyPlanner is set). Caller holds the video's
// lock.
func (s *Store) plan(vs *videoState, r resolvedSpec) (*Plan, error) {
	cands := s.candidatesFor(vs, r)
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: no physical video can serve the request")
	}
	intervals := intervalsFor(cands, r.t1, r.t2)
	if len(intervals) == 0 {
		return nil, fmt.Errorf("core: empty read interval")
	}
	// Candidate fragments per interval.
	perInterval := make([][]*PhysMeta, len(intervals))
	for i, iv := range intervals {
		for _, p := range cands {
			if covers(coverage(p), iv[0], iv[1]) {
				perInterval[i] = append(perInterval[i], p)
			}
		}
		if len(perInterval[i]) == 0 {
			return nil, fmt.Errorf("core: interval [%f, %f) has no covering fragment (baseline cover violated)", iv[0], iv[1])
		}
	}
	if s.opts.GreedyPlanner {
		return s.planGreedy(r, intervals, perInterval), nil
	}
	plan, err := s.planSMT(r, intervals, perInterval)
	if err == smt.ErrNodeBudget {
		// Fall back to the baseline rather than fail the read.
		return s.planGreedy(r, intervals, perInterval), nil
	}
	return plan, err
}

// planSMT encodes fragment selection exactly as Section 3.1 describes:
// exactly one fragment per inter-transition interval; each choice carries
// its transcode cost; entering a fragment mid-GOP adds look-back cost,
// modeled as a pairwise cost with every different predecessor choice.
func (s *Store) planSMT(r resolvedSpec, intervals [][2]float64, perInterval [][]*PhysMeta) (*Plan, error) {
	solver := smt.New()
	type varInfo struct {
		phys      *PhysMeta
		transcode float64
		entry     float64
	}
	vars := make([][]smt.Var, len(intervals))
	info := make(map[smt.Var]varInfo)
	for i, iv := range intervals {
		group := make([]smt.Var, 0, len(perInterval[i]))
		for _, p := range perInterval[i] {
			v := solver.Bool(fmt.Sprintf("i%d-p%d", i, p.ID))
			tc := s.stepCost(p, r, iv[0], iv[1])
			entry := s.entryLookback(p, iv[0])
			solver.Cost(v, tc)
			if i == 0 {
				solver.Cost(v, entry)
			}
			info[v] = varInfo{p, tc, entry}
			group = append(group, v)
		}
		if err := solver.ExactlyOne(group...); err != nil {
			return nil, err
		}
		vars[i] = group
	}
	// Pairwise look-back: switching into fragment f at interval i costs
	// its entry look-back; continuing the same fragment does not.
	for i := 1; i < len(intervals); i++ {
		for _, cur := range vars[i] {
			ci := info[cur]
			if ci.entry == 0 {
				continue
			}
			for _, prev := range vars[i-1] {
				if info[prev].phys.ID == ci.phys.ID {
					continue
				}
				if err := solver.PairCost(prev, cur, ci.entry); err != nil {
					return nil, err
				}
			}
		}
	}
	sol, err := solver.Minimize()
	if err != nil {
		return nil, err
	}
	plan := &Plan{Cost: sol.Cost, Method: "smt"}
	for i, v := range sol.Selected {
		vi := info[v]
		plan.steps = append(plan.steps, planStep{
			phys: vi.phys, a: intervals[i][0], b: intervals[i][1],
			transcode: vi.transcode, entry: vi.entry,
		})
	}
	plan.Runs = len(plan.Fragments())
	return plan, nil
}

// planGreedy is the dependency-naive baseline of Section 6.1: per interval
// it independently picks the fragment with the lowest transcode cost,
// ignoring look-back interactions between choices.
func (s *Store) planGreedy(r resolvedSpec, intervals [][2]float64, perInterval [][]*PhysMeta) *Plan {
	plan := &Plan{Method: "greedy"}
	var prev *PhysMeta
	for i, iv := range intervals {
		var best *PhysMeta
		bestCost := math.Inf(1)
		for _, p := range perInterval[i] {
			if c := s.stepCost(p, r, iv[0], iv[1]); c < bestCost {
				best, bestCost = p, c
			}
		}
		entry := 0.0
		if prev == nil || prev.ID != best.ID {
			entry = s.entryLookback(best, iv[0])
		}
		plan.steps = append(plan.steps, planStep{phys: best, a: iv[0], b: iv[1], transcode: bestCost, entry: entry})
		plan.Cost += bestCost + entry
		prev = best
	}
	plan.Runs = len(plan.Fragments())
	return plan
}
