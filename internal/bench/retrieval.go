package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/visualroad"
)

// Fig10 reproduces Figure 10: the time to select fragments and execute a
// maximal hevc read as the number of materialized fragments grows. The
// original is h264, so the read always converts; a populated cache lets
// the planner substitute cheaper fragments. Three series, as in the
// paper: the SMT solver, the dependency-naive greedy baseline, and
// reading only the original.
func Fig10(w io.Writer) error {
	header(w, "Figure 10: time to select fragments and read video (maximal hevc read)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %14s\n", "#Fragments", "VSS (s)", "Greedy (s)", "Original (s)", "PlanCost(VSS)")

	dir, cleanup, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup()
	s, err := writeBenchVideo(dir, core.Options{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(10))
	maximal := core.ReadSpec{P: core.Physical{Codec: codec.HEVC}}

	// Original-only baseline measured on a cache-less store once.
	origDir, cleanup2, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup2()
	orig, err := writeBenchVideo(origDir, core.Options{DisableCache: true})
	if err != nil {
		return err
	}
	tOrig, err := timeIt(func() error { _, err := orig.Read("video", maximal); return err })
	orig.Close()
	if err != nil {
		return err
	}

	for _, reads := range []int{0, 4, 8, 16, 32} {
		if reads > 0 {
			if _, err := populate(s, rng, reads/2, benchSeconds); err != nil {
				return err
			}
			// Interleave some hevc full-quality reads so the cache holds
			// fragments in the target format, as the paper's workload does.
			for i := 0; i < reads/2; i++ {
				t1 := rng.Float64() * (benchSeconds - 3)
				spec := core.ReadSpec{T: core.Temporal{Start: t1, End: t1 + 3}, P: core.Physical{Codec: codec.HEVC}}
				if _, err := s.Read("video", spec); err != nil {
					return err
				}
			}
		}
		s.Close()

		// Measure both planners against the same frozen cache state.
		var tVSS, tGreedy time.Duration
		var planCost float64
		for _, greedy := range []bool{false, true} {
			m, err := core.Open(dir, core.Options{GOPFrames: 8, DisableCache: true, DisableDeferred: true, GreedyPlanner: greedy})
			if err != nil {
				return err
			}
			var res *core.ReadResult
			t, err := timeIt(func() error {
				var err error
				res, err = m.Read("video", maximal)
				return err
			})
			m.Close()
			if err != nil {
				return err
			}
			if greedy {
				tGreedy = t
			} else {
				tVSS = t
				planCost = res.Stats.PlanCost
			}
		}

		// Count fragments and reopen for the next population round.
		s, err = core.Open(dir, core.Options{GOPFrames: 8})
		if err != nil {
			return err
		}
		frags, err := populate(s, rng, 0, benchSeconds)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12d %12.3f %12.3f %12.3f %14.0f\n",
			frags, tVSS.Seconds(), tGreedy.Seconds(), tOrig.Seconds(), planCost)
	}
	return s.Close()
}

// Fig12 reproduces Figure 12: mean time of short one-second reads as the
// cache grows, for VSS with all optimizations, VSS without deferred
// compression, VSS with ordinary LRU, and the local file system.
func Fig12(w io.Writer) error {
	header(w, "Figure 12: selecting and reading short (1s) segments")
	fmt.Fprintf(w, "%-12s %12s %16s %14s %12s\n", "#Fragments", "VSS (ms)", "NoDeferred (ms)", "OrdLRU (ms)", "LocalFS (ms)")

	// The local file system baseline: the same video in one file.
	fsDir, cleanupFS, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanupFS()
	fs, err := baseline.NewLocalFS(fsDir)
	if err != nil {
		return err
	}
	frames := visualroad.Generate(visualroad.Config{Width: benchW, Height: benchH, FPS: benchFPS, Seed: 1107}, benchSeconds*benchFPS)
	if err := fs.Write("video", frames, codec.H264, 85, 8); err != nil {
		return err
	}
	// The FS variant must produce the same requested output: it decodes
	// the covering GOPs, resamples, and re-encodes when the spec demands
	// a different format — every time, with no cache.
	fsServe := func(spec core.ReadSpec) error {
		from := int(spec.T.Start * benchFPS)
		to := int(spec.T.End * benchFPS)
		frames, err := fs.ReadRange("video", from, to)
		if err != nil {
			return err
		}
		if spec.S.Width > 0 {
			for i, f := range frames {
				frames[i] = f.Convert(frame.RGB).Resize(spec.S.Width, spec.S.Height)
			}
		}
		if spec.P.Codec.Compressed() {
			q := spec.P.Quality
			if q == 0 {
				q = codec.DefaultQuality
			}
			if _, _, err := codec.EncodeGOP(frames, spec.P.Codec, q); err != nil {
				return err
			}
			return nil
		}
		for _, f := range frames {
			f.Convert(frame.RGB)
		}
		return nil
	}
	// Short reads are snapped to whole seconds (the GOP grid): the scaled
	// reproduction issues segment-oriented probes, as per-segment
	// analytics (e.g. license-plate detection) do.
	shortSpec := func(rng *rand.Rand) core.ReadSpec {
		spec := randomReadSpec(rng, benchSeconds)
		spec.T.Start = float64(int(spec.T.Start))
		spec.T.End = spec.T.Start + 1
		return spec
	}
	measureFS := func(rng *rand.Rand, n int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			spec := shortSpec(rng)
			t, err := timeIt(func() error { return fsServe(spec) })
			if err != nil {
				return 0, err
			}
			total += t
		}
		return total / time.Duration(n), nil
	}

	configs := []struct {
		label string
		opts  core.Options
	}{
		{"all", core.Options{BudgetMultiple: 3}},
		{"nodef", core.Options{BudgetMultiple: 3, DisableDeferred: true}},
		{"ordlru", core.Options{BudgetMultiple: 3, OrdinaryLRU: true}},
	}
	type state struct {
		store *core.Store
	}
	states := make([]state, len(configs))
	for i, c := range configs {
		dir, cleanup, err := tempDir()
		if err != nil {
			return err
		}
		defer cleanup()
		s, err := writeBenchVideo(dir, c.opts)
		if err != nil {
			return err
		}
		defer s.Close()
		states[i] = state{store: s}
	}

	const shortReads = 12
	for round, reads := range []int{0, 8, 16, 32} {
		var cells [3]time.Duration
		var frags int
		for i := range configs {
			rng := rand.New(rand.NewSource(int64(1200 + round)))
			if _, err := populate(states[i].store, rng, reads, benchSeconds); err != nil {
				return err
			}
			if err := states[i].store.Maintain(); err != nil {
				return err
			}
			// Measure short random reads drawn from the same parameter
			// distribution as the population workload (identical sequence
			// for every configuration).
			mrng := rand.New(rand.NewSource(int64(7700 + round)))
			var total time.Duration
			for k := 0; k < shortReads; k++ {
				spec := shortSpec(mrng)
				t, err := timeIt(func() error { _, err := states[i].store.Read("video", spec); return err })
				if err != nil {
					return err
				}
				total += t
			}
			cells[i] = total / shortReads
			if i == 0 {
				frags, err = populate(states[i].store, mrng, 0, benchSeconds)
				if err != nil {
					return err
				}
			}
		}
		fsRng := rand.New(rand.NewSource(int64(7700 + round)))
		fsTime, err := measureFS(fsRng, shortReads)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12d %12.1f %16.1f %14.1f %12.1f\n",
			frags, msf(cells[0]), msf(cells[1]), msf(cells[2]), msf(fsTime))
	}
	return nil
}

func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Fig14 reproduces Figure 14: read throughput in the same format and
// converting between formats, for VSS, the local file system, and the
// VStore baseline. An "x" marks conversions a system cannot perform.
func Fig14(w io.Writer) error {
	header(w, "Figure 14: read throughput by format (fps)")
	d := visualroad.Config{Width: 240, Height: 136, FPS: benchFPS, Seed: 1400}
	const n = 96
	frames := visualroad.Generate(d, n)

	// VSS with both compressed and raw originals (two videos).
	dir, cleanup, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup()
	s, err := core.Open(dir, core.Options{GOPFrames: 8, BudgetMultiple: -1, DisableCache: true})
	if err != nil {
		return err
	}
	defer s.Close()
	for name, cd := range map[string]codec.ID{"vh264": codec.H264, "vraw": codec.Raw} {
		if err := s.Create(name, -1); err != nil {
			return err
		}
		if err := s.Write(name, core.WriteSpec{FPS: benchFPS, Codec: cd, Quality: 85}, frames); err != nil {
			return err
		}
	}

	// Local FS with both forms.
	fsDir, cleanupFS, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanupFS()
	fs, err := baseline.NewLocalFS(fsDir)
	if err != nil {
		return err
	}
	fs.Write("vh264", frames, codec.H264, 85, 8)
	fs.Write("vraw", frames, codec.Raw, 0, 8)

	// VStore stages h264 and raw a priori (it must know the workload).
	vsDir, cleanupVS, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanupVS()
	vstore, err := baseline.NewVStore(vsDir, []baseline.StageFormat{
		{Name: "h264", Codec: codec.H264, Quality: 85},
		{Name: "raw", Codec: codec.Raw},
	})
	if err != nil {
		return err
	}
	if err := vstore.Write("v", frames, 8); err != nil {
		return err
	}

	vssRead := func(video string, p core.Physical) func() error {
		return func() error { _, err := s.Read(video, core.ReadSpec{P: p}); return err }
	}
	rows := []struct {
		label   string
		vss     func() error
		localfs func() error
		vstore  func() error
	}{
		{"h264->h264",
			vssRead("vh264", core.Physical{Codec: codec.H264, Quality: 85}),
			func() error { _, err := fs.ReadGOPs("vh264"); return err },
			func() error { _, err := vstore.ReadGOPs("v", "h264"); return err },
		},
		{"raw->raw",
			vssRead("vraw", core.Physical{Format: frame.RGB}),
			func() error { _, err := fs.ReadFrames("vraw"); return err },
			func() error { _, err := vstore.ReadFrames("v", "raw"); return err },
		},
		{"raw->h264",
			vssRead("vraw", core.Physical{Codec: codec.H264}),
			nil, // local fs cannot transcode
			func() error { _, err := vstore.ReadGOPs("v", "h264"); return err }, // staged a priori
		},
		{"h264->raw",
			vssRead("vh264", core.Physical{Format: frame.RGB}),
			func() error { _, err := fs.ReadFrames("vh264"); return err },
			func() error { _, err := vstore.ReadFrames("v", "raw"); return err },
		},
		{"h264->hevc",
			vssRead("vh264", core.Physical{Codec: codec.HEVC}),
			nil, // local fs cannot transcode
			nil, // hevc was not staged: VStore cannot produce it
		},
	}
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "Read", "VSS", "LocalFS", "VStore")
	for _, row := range rows {
		cells := make([]string, 3)
		for i, f := range []func() error{row.vss, row.localfs, row.vstore} {
			if f == nil {
				cells[i] = "x"
				continue
			}
			t, err := timeIt(f)
			if err != nil {
				return fmt.Errorf("%s: %w", row.label, err)
			}
			cells[i] = fmt.Sprintf("%.0f", fps(n, t))
		}
		fmt.Fprintf(w, "%-12s %12s %12s %12s\n", row.label, cells[0], cells[1], cells[2])
	}
	return nil
}
