// Package cost implements the VSS transcode cost model of Section 3.1:
// c_t(f, P, S) = α(f_S, f_P, S, P) · |f|, where α is the per-pixel cost of
// converting between spatial/physical formats, plus the look-back cost
// c_l(Ω, f) = |A − Ω| + η · |(Δ − A) − Ω| that accounts for decoding frame
// dependencies.
//
// The paper derives α by running the vbench transcoding benchmark on the
// installation hardware and interpolating piecewise-linearly between the
// benchmarked resolutions. This package reproduces that mechanism against
// our own codec substrate: Calibrate encodes and decodes sample GOPs at
// several resolutions, measures per-pixel cost, and the model interpolates
// between measured points. Default returns a model seeded with
// pre-measured constants so tests and planners need not pay calibration
// time.
package cost

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
)

// Eta is the relative decode cost of dependent (P) frames versus
// independent (I) frames. The paper fixes η = 1.45 based on the empirical
// estimates of Costa et al. [10].
const Eta = 1.45

// Op identifies a conversion between two physical formats.
type Op struct {
	From, To codec.ID
}

// point is one calibrated measurement: per-pixel cost (in abstract cost
// units; calibrated as nanoseconds) at a given frame pixel count.
type point struct {
	pixels float64
	alpha  float64
}

// Model holds the calibrated α table. It is safe for concurrent use.
type Model struct {
	mu     sync.RWMutex
	points map[Op][]point // sorted by pixels ascending
}

// defaultAlphas seeds Default with per-pixel costs (ns/pixel) measured on
// the reference build of internal/codec. Values vary a few percent across
// hardware; planners only depend on their relative order, which is stable:
// decoding is cheap, encoding dominates, hevc costs more than h264, and
// raw copies are nearly free. TestDefaultOrderMatchesCalibration holds the
// table to the order a fresh Calibrate measures; an entry is re-seeded when
// a codec change flips it (the span kernels dropped the two predictive
// decodes from above ls decode to below it, and h264 encode and re-encode
// from above the ls round trip to below it).
var defaultAlphas = map[Op]float64{
	{codec.Raw, codec.H264}:  22,
	{codec.Raw, codec.HEVC}:  65,
	{codec.H264, codec.Raw}:  7,
	{codec.HEVC, codec.Raw}:  8,
	{codec.H264, codec.H264}: 28,
	{codec.HEVC, codec.HEVC}: 85,
	{codec.H264, codec.HEVC}: 80,
	{codec.HEVC, codec.H264}: 58,
	{codec.Raw, codec.Raw}:   2,
	// ls is flate-free both ways: encode sits well under h264 (no motion
	// search, no deflate); decode is bit-serial and sits above the
	// predictive decoders' byte-wise kernels. Cross-codec ops involving ls
	// fall out of calibration (or the pessimistic unknown-op fallback)
	// rather than seeding.
	{codec.Raw, codec.LS}: 18,
	{codec.LS, codec.Raw}: 12,
	{codec.LS, codec.LS}:  30,
}

// PassthroughAlpha is the per-pixel cost charged when no conversion is
// needed (same codec, same resolution): pure IO and container handling.
const PassthroughAlpha = 0.5

// Default returns a model seeded with the pre-measured constants.
func Default() *Model {
	m := &Model{points: make(map[Op][]point)}
	for op, a := range defaultAlphas {
		// Two points with a mild small-frame penalty: per-pixel overheads
		// (container framing, flate setup) matter more at low resolutions.
		m.points[op] = []point{
			{pixels: 32 * 18, alpha: a * 1.3},
			{pixels: 1920 * 1080, alpha: a},
		}
	}
	return m
}

// CalibrationResolution is a resolution at which Calibrate measures.
type CalibrationResolution struct {
	W, H int
}

// DefaultCalibration is the resolution sweep used when none is given:
// small sizes keep install-time calibration under a second while spanning
// the interpolation range.
var DefaultCalibration = []CalibrationResolution{{128, 72}, {320, 180}, {640, 360}}

// Calibrate measures real per-pixel conversion costs by encoding and
// decoding synthetic GOPs at each resolution — the role vbench plays at
// VSS installation time. frames controls GOP length (<=0 means 8).
func Calibrate(resolutions []CalibrationResolution, frames int) (*Model, error) {
	if len(resolutions) == 0 {
		resolutions = DefaultCalibration
	}
	if frames <= 0 {
		frames = 8
	}
	m := &Model{points: make(map[Op][]point)}
	rng := rand.New(rand.NewSource(1))
	// The op set is registry-driven: every registered codec is measured, so
	// a newly registered codec gets calibrated alphas with no cost-package
	// change. Raw is measured with the rest; `compressed` drives the
	// decode and transcode sweeps.
	all := codec.Registered()
	var compressed []codec.ID
	for _, id := range all {
		if id.Compressed() {
			compressed = append(compressed, id)
		}
	}
	for _, res := range resolutions {
		gop := calibrationScene(rng, frames, res.W, res.H)
		pixels := float64(res.W * res.H * frames)

		encoded := make(map[codec.ID][]byte)
		// raw -> X (encode) and encode raw passthrough.
		for _, to := range all {
			start := time.Now()
			data, _, err := codec.EncodeGOP(gop, to, codec.DefaultQuality)
			if err != nil {
				return nil, fmt.Errorf("cost: calibrate %v: %w", to, err)
			}
			m.observe(Op{codec.Raw, to}, pixels, float64(time.Since(start).Nanoseconds())/pixels)
			encoded[to] = data
		}
		// X -> raw (decode).
		for _, from := range compressed {
			start := time.Now()
			if _, _, err := codec.DecodeGOP(encoded[from]); err != nil {
				return nil, fmt.Errorf("cost: calibrate decode %v: %w", from, err)
			}
			m.observe(Op{from, codec.Raw}, pixels, float64(time.Since(start).Nanoseconds())/pixels)
		}
		// X -> Y (full transcode: decode + encode).
		for _, from := range compressed {
			for _, to := range compressed {
				start := time.Now()
				dec, _, err := codec.DecodeGOP(encoded[from])
				if err != nil {
					return nil, err
				}
				if _, _, err := codec.EncodeGOP(dec, to, codec.DefaultQuality); err != nil {
					return nil, err
				}
				m.observe(Op{from, to}, pixels, float64(time.Since(start).Nanoseconds())/pixels)
			}
		}
	}
	return m, nil
}

// calibrationScene synthesizes a moving-texture GOP representative of
// surveillance content.
func calibrationScene(rng *rand.Rand, n, w, h int) []*frame.Frame {
	frames := make([]*frame.Frame, n)
	base := frame.New(w, h, frame.RGB)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base.SetRGB(x, y, byte(x*255/w), byte(y*255/h), byte((x+y)%256))
		}
	}
	for i := range frames {
		f := base.Clone()
		// A moving block forces inter-prediction work.
		bx := (i * 4) % (w - 16)
		for y := h / 4; y < h/4+16 && y < h; y++ {
			for x := bx; x < bx+16; x++ {
				f.SetRGB(x, y, byte(rng.Intn(256)), 50, 200)
			}
		}
		frames[i] = f
	}
	return frames
}

// observe inserts a calibration point, keeping points sorted.
func (m *Model) observe(op Op, pixels, alpha float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pts := append(m.points[op], point{pixels, alpha})
	sort.Slice(pts, func(i, j int) bool { return pts[i].pixels < pts[j].pixels })
	m.points[op] = pts
}

// Alpha returns the per-pixel cost of converting a frame with the given
// pixel count between codecs, interpolating piecewise-linearly between
// calibrated resolutions (and clamping outside the calibrated range, as
// the paper does for resolutions vbench does not evaluate).
func (m *Model) Alpha(from, to codec.ID, pixels int) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pts := m.points[Op{from, to}]
	if len(pts) == 0 {
		// Unknown op: assume the most expensive calibrated conversion so
		// the planner never underestimates.
		var worst float64
		for _, p := range m.points {
			for _, pt := range p {
				if pt.alpha > worst {
					worst = pt.alpha
				}
			}
		}
		if worst == 0 {
			worst = 100
		}
		return worst
	}
	p := float64(pixels)
	if p <= pts[0].pixels {
		return pts[0].alpha
	}
	if p >= pts[len(pts)-1].pixels {
		return pts[len(pts)-1].alpha
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].pixels >= p })
	lo, hi := pts[i-1], pts[i]
	t := (p - lo.pixels) / (hi.pixels - lo.pixels)
	return lo.alpha + t*(hi.alpha-lo.alpha)
}

// Transcode returns c_t for converting `pixels` total pixels (frame pixels
// times frame count) between formats. A same-codec, same-resolution
// passthrough costs PassthroughAlpha per pixel.
func (m *Model) Transcode(from, to codec.ID, srcPixelsPerFrame, dstPixelsPerFrame, frames int) float64 {
	if from == to && srcPixelsPerFrame == dstPixelsPerFrame {
		return PassthroughAlpha * float64(srcPixelsPerFrame*frames)
	}
	// Conversion reads every source pixel and writes every destination
	// pixel; α is calibrated against the source resolution, and a
	// resolution change adds resampling work proportional to the output.
	a := m.Alpha(from, to, srcPixelsPerFrame)
	total := a * float64(srcPixelsPerFrame*frames)
	if srcPixelsPerFrame != dstPixelsPerFrame {
		total += 2 * float64(dstPixelsPerFrame*frames) // bilinear resample term
	}
	return total
}

// LookBack returns c_l(Ω, f): the cost of decoding the dependency frames
// of a fragment that are not already decoded. independent counts frames in
// A − Ω (I-frames to decode), dependent counts frames in (Δ − A) − Ω
// (P-frames to decode). Dependent frames cost η times an independent one.
func LookBack(independent, dependent int) float64 {
	if independent < 0 {
		independent = 0
	}
	if dependent < 0 {
		dependent = 0
	}
	return float64(independent) + Eta*float64(dependent)
}

// Ops returns the calibrated operations (diagnostics / tests).
func (m *Model) Ops() []Op {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Op, 0, len(m.points))
	for op := range m.points {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
