package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/vss"
)

// readSpill is the paper's core loop: C library readers, closed loop, over
// two pre-ingested videos whose materialised views do not fit the storage
// budget, so planner, admission, LRU_vss eviction, deferred compression and
// transcode all run. No HTTP, no router.
//
// The harness does not call Maintain during the phase, as the issue asked:
// at the seed commit compaction numbers a merged view's new GOPs from
// len(GOPs), which collides with a surviving sequence number once eviction
// has removed the view's first pages; the link overwrites a live GOP file,
// and the next eviction of either page leaves the other's metadata pointing
// at a file that is gone, so later reads of that window fail. Deferred
// compression still runs, from the read path's own pressure checks.
//
// Reads are drawn from the paper's S/T/P mix. Two of the four classes go
// through Read and two through ReadStream; the streamed ones also give the
// time to the first batch, which is this workload's aux latency.
type readSpill struct {
	cfg    runConfig
	videos [2][]*frame.Frame
	ops    []readOp // the measured schedule, cycled if a run outlasts it
	warm   []readOp
	hash   scheduleHasher

	ref    *vss.System // DisableCache reference store, built on first use
	refDir string
}

// readOp is one read of the schedule.
type readOp struct {
	video int
	class int // index into readClasses
	start int // seconds
}

type readClass struct {
	name     string
	streamed bool
	codec    vss.Codec // "" = raw
	quality  int
	w, h     int
	weight   int // reads of this class per block of the schedule
}

// The weights put the median read inside the two mid-cost classes (which
// cost about the same and hold four fifths of the reads) and the 95th
// percentile at the middle of the dearest one (the top tenth), rather than
// on a boundary between two classes, where a handful of reads would move it
// by the gap between them.
var readClasses = []readClass{
	{name: "hevc", codec: vss.HEVC, w: frameW, h: frameH, weight: 1},
	{name: "h264q70", streamed: true, codec: vss.H264, quality: 70, w: frameW, h: frameH, weight: 4},
	{name: "thumb", w: frameW / 4, h: frameH / 4, weight: 1},
	{name: "hevc-half", streamed: true, codec: vss.HEVC, w: frameW / 2, h: frameH / 2, weight: 4},
}

// libBudgetX is each library video's storage budget as a multiple of its
// original: one original's worth of room for views that add up to several.
const libBudgetX = 2

// readWindow is the length of every read, in seconds. The issue's 1-3 s
// spread multiplies four classes into twelve cost levels between 27 and
// 360 ms, and the median then sits in a gap between two of them.
const readWindow = 2

// minRefPSNR is how close a read must be to the same read on a store that
// caches nothing. A thumbnail answered from a cached half-resolution hevc
// view measures 26 dB against one scaled from the original, so this is a
// check that the right frames came back, not a quality gate.
const minRefPSNR = 22

func (o readOp) spec() vss.ReadSpec {
	c := readClasses[o.class]
	spec := vss.ReadSpec{T: vss.Temporal{Start: float64(o.start), End: float64(o.start + readWindow)}}
	spec.P.Codec, spec.P.Quality = c.codec, c.quality
	if c.w != frameW {
		spec.S = vss.Spatial{Width: c.w, Height: c.h}
	}
	return spec
}

func libName(i int) string { return fmt.Sprintf("lib-%d", i) }

func (w *readSpill) name() string                { return "read_spill" }
func (w *readSpill) scheduleHash() string        { return w.hash.String() }
func (w *readSpill) probeFrames() []*frame.Frame { return w.videos[0][:w.cfg.sz.probeGOPs*gopFrames] }

func (w *readSpill) prepare(cfg runConfig) error {
	w.cfg = cfg
	content := newRNG(cfg.seed, w.name(), streamContent)
	for i := range w.videos {
		phase := content.Intn(4096)
		w.hash.add("video", i, phase)
		w.videos[i] = roadClip(int64(2000+i), phase, cfg.sz.libSeconds*fps)
	}
	draw := func(stream, n int) []readOp {
		rng := newRNG(cfg.seed, w.name(), stream)
		starts := newZipfStarts(rng, cfg.sz.libSeconds-readWindow+1, 100)
		// Class and video come in shuffled blocks holding every class at its
		// weight on each video: any stretch of the schedule has the same mix,
		// so how far a run gets does not change what it measured. Only the
		// window start is a free draw.
		ops := make([]readOp, 0, n)
		for len(ops) < n {
			var block []readOp
			for v := range w.videos {
				for c, class := range readClasses {
					for k := 0; k < class.weight; k++ {
						block = append(block, readOp{video: v, class: c})
					}
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			for _, o := range block {
				o.start = starts.next()
				ops = append(ops, o)
			}
		}
		return ops[:n]
	}
	w.ops, w.warm = draw(streamSchedule, 4096), draw(streamWarmup, cfg.sz.libWarmReads)
	for _, o := range w.ops {
		w.hash.add(o)
	}
	return nil
}

func (w *readSpill) close() {
	if w.ref != nil {
		w.ref.Close()
		os.RemoveAll(w.refDir)
	}
}

// ingestLibrary writes both videos through the system's own ingest path.
func (w *readSpill) ingestLibrary(sys *vss.System, budget int64) error {
	for i, frames := range w.videos {
		if err := sys.Create(libName(i), budget); err != nil {
			return err
		}
		if err := sys.Write(libName(i), vss.WriteSpec{FPS: fps, Codec: vss.H264, Quality: origQuality}, frames); err != nil {
			return err
		}
	}
	return nil
}

// readOut is what one read returned, reduced to what verification needs.
type readOut struct {
	frames  int
	w, h    int
	first   time.Duration // time to the first batch; streamed reads only
	stats   vss.ReadStats
	gops    [][]byte // compressed output, kept only for sampled reads
	decoded []*frame.Frame
}

// do executes one read against sys. keep retains the output for comparison.
func (o readOp) do(ctx context.Context, sys *vss.System, keep bool) (readOut, error) {
	var out readOut
	name, spec := libName(o.video), o.spec()
	if !readClasses[o.class].streamed {
		res, err := sys.ReadContext(ctx, name, spec)
		if err != nil {
			return out, err
		}
		out.frames, out.w, out.h, out.stats = res.FrameCount(), res.Width, res.Height, res.Stats
		if keep {
			out.gops, out.decoded = res.GOPs, res.Frames
		}
		return out, nil
	}
	start := time.Now()
	st, err := sys.ReadStream(ctx, name, spec)
	if err != nil {
		return out, err
	}
	defer st.Close()
	out.w, out.h = st.Width, st.Height
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		if out.first == 0 {
			out.first = time.Since(start)
		}
		out.frames += b.FrameCount()
		if keep {
			if b.GOP != nil {
				out.gops = append(out.gops, b.GOP)
			}
			out.decoded = append(out.decoded, b.Frames...)
		}
	}
	out.stats = st.Stats()
	return out, nil
}

// pixels decodes a read's output to frames.
func (r readOut) pixels() ([]*frame.Frame, error) {
	frames := r.decoded
	for _, g := range r.gops {
		fs, _, err := codec.DecodeGOP(g)
		if err != nil {
			return nil, err
		}
		frames = append(frames, fs...)
	}
	return frames, nil
}

type sampledRead struct {
	op  readOp
	out readOut
}

func (w *readSpill) round(rc *roundCtx) (*roundResult, error) {
	cfg := w.cfg
	res := newRoundResult(cfg.clients, "read", "first")
	res.fpsName = "read_fps"

	setupStart := time.Now()
	sys, backend, err := openLocal(rc.dir, vss.Options{GOPFrames: gopFrames, BudgetMultiple: libBudgetX})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := w.ingestLibrary(sys, 0); err != nil {
		return nil, err
	}
	// Warm-up from its own seed stream, until the views have filled the
	// budget of both videos: the measured phase is the steady state, where
	// every admission evicts.
	if err := w.warmUp(sys); err != nil {
		return nil, err
	}
	res.setupS = time.Since(setupStart).Seconds()

	backend.attach(rc.tr)
	pipe := sys.Store().Pipeline()
	stages0, store0, proc0 := pipe.Snapshot(), sys.BackendStats(), readProc()

	var mu sync.Mutex
	var sampled []sampledRead
	lanes, wall := closedLoop(rc.tr, 0, cfg.clients, rc.dur(), func(l *laneRec, i int) {
		op := w.ops[i%len(w.ops)]
		class := readClasses[op.class]
		keep := i%cfg.sz.verifyEvery == 0
		l.attempts++
		var out readOut
		callName := "Read"
		if class.streamed {
			callName = "ReadStream"
		}
		d, err := l.call(callName, func(ctx context.Context) (err error) {
			out, err = op.do(ctx, sys, keep)
			return err
		})
		if err != nil {
			l.failf("read %d %+v: %v", i, op, err)
			return
		}
		l.add("read", d)
		l.add("read."+class.name, d)
		if class.streamed {
			l.add("first", out.first)
		}
		l.frames += int64(out.frames)
		l.count("reads", 1)
		l.count("plan_runs", float64(out.stats.PlanRuns))
		l.count("gops_decoded", float64(out.stats.GOPsDecoded))
		l.count("stored_kb", float64(out.stats.BytesRead)/1024)
		if out.stats.Admitted {
			l.count("admitted", 1)
		}
		if out.stats.GOPsDecoded == 0 {
			l.count("passthrough", 1)
		}
		if out.frames != readWindow*fps || out.w != class.w || out.h != class.h {
			l.failf("read %d %+v: got %d frames %dx%d, want %d frames %dx%d", i, op, out.frames, out.w, out.h, readWindow*fps, class.w, class.h)
		}
		if keep {
			mu.Lock()
			sampled = append(sampled, sampledRead{op, out})
			mu.Unlock()
		}
	})
	res.wallS = wall.Seconds()
	res.merge(lanes)
	res.proc = readProc().since(proc0)
	res.stages = stagesSince(pipe.Snapshot(), stages0)
	store := backendSince(sys.BackendStats(), store0)

	laneMs := res.wallS * 1e3 * float64(cfg.clients)
	stageLayer(res.layer, res.stages, laneMs)
	// Nothing the user wrote is written during the phase: every byte the
	// backend takes is a cached view, so amplification is against the
	// library itself.
	var stored, budget, frames int64
	level := 0
	for i, v := range w.videos {
		meta, _, err := sys.Store().Info(libName(i))
		if err != nil {
			return nil, err
		}
		n, _ := sys.TotalBytes(libName(i))
		stored += n
		budget += meta.Budget
		frames += int64(len(v))
		level = max(level, sys.DeferredLevel(libName(i)))
	}
	storageLayer(res.layer, store, backend, int64(float64(budget)/libBudgetX), laneMs)
	backend.attach(nil)
	// One maintenance pass, after the measured phase and its sampled outputs
	// (see the type comment for why not inside it).
	mstart := time.Now()
	if err := sys.Maintain(); err != nil {
		res.fail("maintain: %v", err)
	}
	res.samples["maintain"] = []float64{float64(time.Since(mstart)) / 1e6}
	reads := res.counts["reads"]
	res.layer["core.plan_runs_per_read"] = ratio(res.counts["plan_runs"], reads)
	res.layer["core.gops_decoded_per_read"] = ratio(res.counts["gops_decoded"], reads)
	res.layer["core.stored_kb_read_per_read"] = ratio(res.counts["stored_kb"], reads)
	res.layer["core.admit_frac"] = ratio(res.counts["admitted"], reads)
	res.layer["core.passthrough_frac"] = ratio(res.counts["passthrough"], reads)
	res.layer["core.deferred_level_end"] = float64(level)
	res.storedRatio = ratio(float64(stored), float64(frames*rawFrameBytes))
	res.phys = largestPhys(sys, libName(0), libName(1))

	res.assert(store.Deletes > 0, "no storage deletes: the views fit the budget, nothing was evicted")
	// Deferred compression keeps shrinking the thumbnails between
	// admissions and one evicted page is 3% of a budget this small, so the
	// store hovers a little under its budget; it must never be over it.
	res.assert(float64(stored) >= 0.85*float64(budget) && stored <= budget,
		"stored %d bytes vs budget %d: want 85%% to 100%% of it", stored, budget)

	if err := w.verifySampled(sampled, res); err != nil {
		return nil, err
	}
	return res, nil
}

// warmUp replays the warm-up stream on C goroutines until both videos have
// used 95% of their budget (or the stream runs out).
func (w *readSpill) warmUp(sys *vss.System) error {
	full := func() bool {
		for i := range w.videos {
			meta, _, err := sys.Store().Info(libName(i))
			n, _ := sys.TotalBytes(libName(i))
			if err != nil || float64(n) < 0.95*float64(meta.Budget) {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make([]error, w.cfg.clients)
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.warm) && !full(); i += w.cfg.clients {
				if _, err := w.warm[i].do(context.Background(), sys, false); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// verifySampled compares sampled reads, after timing, with what a store
// that caches nothing returns for the same spec: same frame count and size,
// and pixels within minRefPSNR. A read answered from cached views is not
// byte-identical to one transcoded from the original, so bytes are not
// compared.
func (w *readSpill) verifySampled(sampled []sampledRead, res *roundResult) error {
	if w.ref == nil {
		w.refDir = filepath.Join(w.cfg.workdir, fmt.Sprintf("%s-ref", w.name()))
		ref, err := vss.Open(w.refDir, vss.Options{GOPFrames: gopFrames, BudgetMultiple: -1, DisableCache: true})
		if err != nil {
			return err
		}
		w.ref = ref
		if err := w.ingestLibrary(ref, -1); err != nil {
			return err
		}
	}
	if len(sampled) > w.cfg.sz.verifyMaxReads {
		sampled = sampled[:w.cfg.sz.verifyMaxReads]
	}
	for _, s := range sampled {
		want, err := s.op.do(context.Background(), w.ref, true)
		if err != nil {
			return fmt.Errorf("reference read %+v: %w", s.op, err)
		}
		got, err := s.out.pixels()
		if err != nil {
			res.fail("verify %+v: output does not decode: %v", s.op, err)
			continue
		}
		ref, err := want.pixels()
		if err != nil {
			return fmt.Errorf("reference read %+v: %w", s.op, err)
		}
		if len(got) != len(ref) {
			res.fail("verify %+v: %d frames, reference has %d", s.op, len(got), len(ref))
			continue
		}
		for j := range got {
			if p := psnrYUV(got[j], ref[j]); p < minRefPSNR {
				res.fail("verify %+v frame %d: %.1f dB vs reference, want >= %d", s.op, j, p, minRefPSNR)
				break
			}
		}
	}
	return nil
}
