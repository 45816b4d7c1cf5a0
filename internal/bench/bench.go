// Package bench implements the paper's evaluation (Section 6): one
// experiment per table and figure, each printing rows in the shape the
// paper reports. Absolute numbers differ from the paper's GPU testbed —
// the substrate here is a pure-Go codec on one CPU, and dataset sizes are
// scaled (resolutions 1K=240x136, 2K=480x272, 4K=960x544, frame counts
// x0.002; see internal/datasets) — but each experiment reproduces the
// paper's comparison: who wins, roughly by how much, and where the
// crossovers fall.
//
// Run everything with `go run ./cmd/vssbench -exp all`, or a single
// experiment with `-exp fig10`. The numbers are single draws and gate
// nothing; benchmark/ is what a change is measured against.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/frame"
	"repro/internal/visualroad"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	// Name is the CLI identifier (e.g. "fig10", "table2").
	Name string
	// Title describes the experiment (the paper's caption, abbreviated).
	Title string
	// Run executes the experiment, writing rows to w.
	Run func(w io.Writer) error
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Datasets used to evaluate VSS", Table1},
		{"fig10", "Long reads: fragment selection vs cache size (solver vs greedy vs original)", Fig10},
		{"fig11", "Joint compression pair selection: VSS vs random vs oracle", Fig11},
		{"fig12", "Short 1-second reads vs cache size and optimizations", Fig12},
		{"fig13", "Deferred compression during uncompressed writes", Fig13},
		{"fig14", "Read throughput by input/output format (VSS vs Local FS vs VStore)", Fig14},
		{"fig15", "Write throughput per dataset (uncompressed and compressed)", Fig15},
		{"fig16", "Final read runtime by eviction policy and storage budget", Fig16},
		{"table2", "Joint compression recovered quality by merge function", Table2},
		{"fig17", "Joint vs separate storage size by overlap", Fig17},
		{"fig18", "Joint compression read/write throughput", Fig18},
		{"fig19", "Joint compression overhead by resolution and camera dynamicism", Fig19},
		{"fig20", "Read throughput of deferred-compressed fragments by level", Fig20},
		{"fig21", "End-to-end application performance by client count", Fig21},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// tempDir creates a scratch directory that the caller removes.
func tempDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "vssbench-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// benchScene are the standard workload parameters used by the retrieval
// and caching experiments: the paper's VisualRoad-4K-30% dataset at the
// repository's scaled "2K" working resolution, shortened to keep a full
// sweep on one CPU under a minute per configuration.
const (
	benchW, benchH = 480, 272
	benchFPS       = 8
	benchSeconds   = 24
)

// writeBenchVideo creates a store with the standard workload written as
// h264 (the experiments' originally-written format).
func writeBenchVideo(dir string, opts core.Options) (*core.Store, error) {
	if opts.GOPFrames == 0 {
		opts.GOPFrames = 8
	}
	s, err := core.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	frames := visualroad.Generate(visualroad.Config{
		Width: benchW, Height: benchH, FPS: benchFPS, Seed: 1107,
	}, benchSeconds*benchFPS)
	if err := s.Create("video", -1); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.Write("video", core.WriteSpec{FPS: benchFPS, Codec: codec.H264, Quality: 85}, frames); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// randomReadSpec draws the random read parameters the paper uses to
// populate the cache: random interval, resolution, and physical format.
// Intervals are snapped to whole seconds — the GOP grid — so cached views
// compose; the snapping is this scaled reproduction's choice, not the
// paper's.
func randomReadSpec(rng *rand.Rand, duration float64) core.ReadSpec {
	t1 := float64(rng.Intn(int(duration) - 2))
	t2 := t1 + 1 + float64(rng.Intn(4))
	if t2 > duration {
		t2 = duration
	}
	var spec core.ReadSpec
	spec.T = core.Temporal{Start: t1, End: t2}
	switch rng.Intn(4) {
	case 0:
		spec.P.Codec = codec.HEVC
	case 1:
		spec.P.Codec = codec.H264
		spec.P.Quality = 70
	case 2: // raw thumbnail (drives deferred compression)
		spec.S = core.Spatial{Width: benchW / 4, Height: benchH / 4}
	case 3:
		spec.P.Codec = codec.HEVC
		spec.S = core.Spatial{Width: benchW / 2, Height: benchH / 2}
	}
	return spec
}

// populate issues n random reads to build cache state, returning the
// number of materialized fragments afterwards.
func populate(s *core.Store, rng *rand.Rand, n int, duration float64) (int, error) {
	for i := 0; i < n; i++ {
		if _, err := s.Read("video", randomReadSpec(rng, duration)); err != nil {
			return 0, err
		}
	}
	_, phys, err := s.Info("video")
	if err != nil {
		return 0, err
	}
	frags := 0
	for _, p := range phys {
		frags += len(p.GOPs)
	}
	return frags, nil
}

// timeIt measures one call.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// fps converts frames over a duration into frames/second.
func fps(frames int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(frames) / d.Seconds()
}

// genPairStore writes an overlapping camera pair into a fresh store.
func genPairStore(dir string, cfg visualroad.Config, n int, opts core.Options) (*core.Store, []*frame.Frame, []*frame.Frame, error) {
	if opts.GOPFrames == 0 {
		opts.GOPFrames = 8
	}
	s, err := core.Open(dir, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	left, right := visualroad.GeneratePair(cfg, n)
	for name, frames := range map[string][]*frame.Frame{"cam-left": left, "cam-right": right} {
		if err := s.Create(name, -1); err != nil {
			s.Close()
			return nil, nil, nil, err
		}
		if err := s.Write(name, core.WriteSpec{FPS: cfg.FPS, Codec: codec.H264, Quality: 90}, frames); err != nil {
			s.Close()
			return nil, nil, nil, err
		}
	}
	return s, left, right, nil
}

// datasetFrames caps dataset generation for throughput experiments.
func datasetFrames(d datasets.Dataset, cap int) int {
	n := d.Frames
	if cap > 0 && n > cap {
		n = cap
	}
	return n
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
