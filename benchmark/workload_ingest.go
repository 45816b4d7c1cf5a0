package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/frame"
	"repro/vss"
)

// ingestFanin is the capture path: C cameras, each a closed loop appending
// its looped clip through vss.OpenWriter. One op is a segment — segmentGOPs
// one-second GOPs appended, then Flush — timed until Flush returns, which is
// when the segment is durable and visible to readers.
type ingestFanin struct {
	cfg   runConfig
	clips [][]*frame.Frame
	hash  scheduleHasher
}

func (w *ingestFanin) name() string         { return "ingest_fanin" }
func (w *ingestFanin) scheduleHash() string { return w.hash.String() }
func (w *ingestFanin) close()               {}

func (w *ingestFanin) probeFrames() []*frame.Frame {
	return w.clips[0][:w.cfg.sz.probeGOPs*gopFrames]
}

func (w *ingestFanin) prepare(cfg runConfig) error {
	w.cfg = cfg
	rng := newRNG(cfg.seed, w.name(), streamContent)
	for cam := 0; cam < cfg.clients; cam++ {
		phase := rng.Intn(4096)
		w.hash.add("cam", cam, phase)
		w.clips = append(w.clips, roadClip(int64(1000+cam), phase, cfg.sz.clipFrames))
	}
	return nil
}

func camName(i int) string { return fmt.Sprintf("cam-%d", i) }

func (w *ingestFanin) round(rc *roundCtx) (*roundResult, error) {
	cfg := w.cfg
	res := newRoundResult(cfg.clients, "commit", "flush")
	res.fpsName = "ingest_fps"
	segFrames := cfg.sz.segmentGOPs * gopFrames

	setupStart := time.Now()
	sys, backend, err := openLocal(rc.dir, vss.Options{GOPFrames: gopFrames})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	writers := make([]*vss.Writer, cfg.clients)
	pos := make([]int, cfg.clients) // next clip frame per camera
	for cam := range writers {
		if err := sys.Create(camName(cam), -1); err != nil { // no budget: nothing is cached on this path
			return nil, err
		}
		wr, err := sys.OpenWriter(camName(cam), vss.WriteSpec{FPS: fps, Codec: vss.H264, Quality: origQuality})
		if err != nil {
			return nil, err
		}
		writers[cam] = wr
	}
	// segment returns the next segFrames frames of a camera's loop.
	segment := func(cam int) []*frame.Frame {
		clip := w.clips[cam]
		out := make([]*frame.Frame, segFrames)
		for i := range out {
			out[i] = clip[(pos[cam]+i)%len(clip)]
		}
		pos[cam] += segFrames
		return out
	}
	// Warm-up: one untimed segment per camera starts the encode pipeline
	// and sizes its scratch, which the first timed repetition would
	// otherwise pay.
	for cam, wr := range writers {
		if err := wr.Append(segment(cam)...); err != nil {
			return nil, err
		}
		if err := wr.Flush(); err != nil {
			return nil, err
		}
	}
	res.setupS = time.Since(setupStart).Seconds()

	backend.attach(rc.tr)
	pipe := sys.Store().Pipeline()
	stages0, store0, proc0 := pipe.Snapshot(), sys.BackendStats(), readProc()
	bytes0 := w.storedBytes(sys)

	lanes, wall := closedLoop(rc.tr, 0, cfg.clients, rc.dur(), func(l *laneRec, _ int) {
		cam, wr := l.id, writers[l.id]
		frames := segment(cam)
		l.attempts++
		start := time.Now()
		for g := 0; g < len(frames); g += gopFrames {
			d, err := l.call("Writer.Append", func(context.Context) error { return wr.Append(frames[g : g+gopFrames]...) })
			l.add("append", d)
			if err != nil {
				l.failf("append cam %d: %v", cam, err)
				return
			}
		}
		d, err := l.call("Writer.Flush", func(context.Context) error { return wr.Flush() })
		if err != nil {
			l.failf("flush cam %d: %v", cam, err)
			return
		}
		l.add("flush", d)
		l.add("commit", time.Since(start))
		l.frames += int64(len(frames))
	})
	res.wallS = wall.Seconds()
	res.merge(lanes)
	res.proc = readProc().since(proc0)
	stages, store := stagesSince(pipe.Snapshot(), stages0), backendSince(sys.BackendStats(), store0)

	laneMs := res.wallS * 1e3 * float64(cfg.clients)
	res.stages = stages
	stageLayer(res.layer, stages, laneMs)
	res.layer["core.append_wait_ms_p50"] = percentile(res.samples["append"], 0.5)
	res.layer["core.flush_ms_p50"] = percentile(res.samples["flush"], 0.5)
	storageLayer(res.layer, store, backend, w.storedBytes(sys)-bytes0, laneMs)
	backend.attach(nil)

	for cam, wr := range writers {
		if err := wr.Close(); err != nil {
			res.fail("close cam %d: %v", cam, err)
		}
	}
	// One maintenance pass, after the measured phase and so outside its
	// spans; reported as core.maintain_ms_p50.
	mstart := time.Now()
	if err := sys.Maintain(); err != nil {
		res.fail("maintain: %v", err)
	}
	res.samples["maintain"] = []float64{float64(time.Since(mstart)) / 1e6}

	names := make([]string, cfg.clients)
	for cam := range names {
		names[cam] = camName(cam)
	}
	res.phys = largestPhys(sys, names...)

	w.verify(sys, pos, res)
	res.assert(res.layer["codec.encode_busy_frac"] >= 0.5,
		"encode busy %.2f of lane time, want >= 0.5: ingest is not encode-bound", res.layer["codec.encode_busy_frac"])
	return res, nil
}

func (w *ingestFanin) storedBytes(sys *vss.System) int64 {
	var total int64
	for cam := range w.clips {
		n, _ := sys.TotalBytes(camName(cam)) // a missing video shows up in verify
		total += n
	}
	return total
}

// verify reads the ingested video back: every camera must hold exactly the
// frames appended, and sampled seconds must match the source clip to 30 dB.
func (w *ingestFanin) verify(sys *vss.System, appended []int, res *roundResult) {
	rng := newRNG(w.cfg.seed, w.name(), streamVerify)
	var stored, frames int64
	for cam, clip := range w.clips {
		name := camName(cam)
		meta, _, err := sys.Store().Info(name)
		if err != nil {
			res.fail("read-back %s: %v", name, err)
			continue
		}
		got := int(meta.Duration*fps + 0.5)
		if got != appended[cam] {
			res.fail("read-back %s: %d frames stored, %d appended", name, got, appended[cam])
			continue
		}
		n, _ := sys.TotalBytes(name)
		stored += n
		frames += int64(got)
		for k := 0; k < 3; k++ {
			sec := rng.Intn(got / fps)
			out, err := sys.Read(name, vss.ReadSpec{T: vss.Temporal{Start: float64(sec), End: float64(sec + 1)}})
			if err != nil {
				res.fail("read-back %s second %d: %v", name, sec, err)
				continue
			}
			if len(out.Frames) != fps {
				res.fail("read-back %s second %d: %d frames, want %d", name, sec, len(out.Frames), fps)
				continue
			}
			for j, f := range out.Frames {
				if p := psnrYUV(f, clip[(sec*fps+j)%len(clip)]); p < 30 {
					res.fail("read-back %s frame %d: %.1f dB vs source, want >= 30", name, sec*fps+j, p)
					break
				}
			}
		}
	}
	res.storedRatio = ratio(float64(stored), float64(frames*rawFrameBytes))
}
