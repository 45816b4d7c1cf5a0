package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/vss"
)

// probeReps is how often each leaf probe repeats; the median is reported.
const probeReps = 3

// timeMedian runs fn probeReps times and returns the median duration in
// milliseconds.
func timeMedian(fn func()) float64 {
	ms := make([]float64, probeReps)
	for i := range ms {
		start := time.Now()
		fn()
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return median(ms)
}

// runProbes times leaf-layer functions directly, on source frames of the
// workload's own data, after the measured phase of a traced run. A probe is
// the one number about a leaf that does not depend on how the workload
// happened to schedule it, which is what makes it comparable across
// workloads and commits.
func runProbes(m map[string]float64, frames []*frame.Frame, phys *core.PhysMeta, workdir string) {
	if len(frames) < gopFrames {
		return
	}
	gops := len(frames) / gopFrames
	frames = frames[:gops*gopFrames]
	n := float64(len(frames))

	yuv := make([]*frame.Frame, len(frames))
	m["frame.convert_us_per_frame"] = timeMedian(func() {
		for i, f := range frames {
			yuv[i] = f.Convert(frame.YUV420)
		}
	}) * 1e3 / n
	m["frame.resize_us_per_frame"] = timeMedian(func() {
		for _, f := range yuv {
			f.Resize(frameW/2, frameH/2)
		}
	}) * 1e3 / n

	for _, id := range []codec.ID{codec.H264, codec.HEVC} {
		enc := codec.NewEncoder()
		encoded := make([][]byte, gops)
		var bytes int
		m["codec.encode_ms_per_gop."+string(id)] = timeMedian(func() {
			bytes = 0
			for g := range encoded {
				// A probe that cannot encode reports 0 and the run's own
				// verification says why.
				encoded[g], _, _ = enc.EncodeGOP(frames[g*gopFrames:(g+1)*gopFrames], id, origQuality)
				bytes += len(encoded[g])
			}
		}) / float64(gops)
		if id == codec.H264 {
			m["codec.bytes_per_frame.h264"] = float64(bytes) / n
		}
		m["codec.decode_ms_per_gop."+string(id)] = timeMedian(func() {
			for _, g := range encoded {
				codec.DecodeGOP(g)
			}
		}) / float64(gops)
	}

	// The deferred tier: one GOP of raw frames through the ls codec at a
	// lossless quality, in MB of raw pixels per second.
	raw := yuv[:gopFrames]
	rawMB := float64(gopFrames*rawFrameBytes) / (1 << 20)
	var ls []byte
	enc := codec.NewEncoder()
	m["codec.ls_encode_mbps"] = ratio(rawMB*1e3, timeMedian(func() { ls, _, _ = enc.EncodeGOP(raw, codec.LS, 100) }))
	m["codec.ls_decode_mbps"] = ratio(rawMB*1e3, timeMedian(func() { codec.DecodeGOP(ls) }))

	m["detect.analyze_ms_per_gop"] = timeMedian(func() {
		for g := 0; g < gops; g++ {
			vss.AnalyzeFrames(frames[g*gopFrames : (g+1)*gopFrames])
		}
	}) / float64(gops)

	probeCatalog(m, phys, workdir)
}

// probeCatalog rewrites the largest physical-video record the workload ended
// with into a scratch catalog: every GOP commit rewrites that record whole,
// so its size and put time are what per-commit cost grows with.
func probeCatalog(m map[string]float64, phys *core.PhysMeta, workdir string) {
	if phys == nil {
		return
	}
	dir := filepath.Join(workdir, fmt.Sprintf("catalog-probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	db, err := catalog.Open(dir)
	if err != nil {
		return
	}
	defer db.Close()
	if raw, err := json.Marshal(phys); err == nil {
		m["catalog.record_kb"] = float64(len(raw)) / 1024
	}
	m["catalog.put_us"] = timeMedian(func() { db.Put("phys", "probe/000000", phys) }) * 1e3
	m["catalog.sync_us"] = timeMedian(func() {
		db.Put("phys", "probe/000000", phys)
		db.Sync()
	}) * 1e3
}

// largestPhys returns the physical-video record with the most GOPs among the
// named videos of a store, for probeCatalog.
func largestPhys(sys *vss.System, names ...string) *core.PhysMeta {
	var best *core.PhysMeta
	for _, name := range names {
		_, phys, err := sys.Store().Info(name)
		if err != nil {
			continue
		}
		for i := range phys {
			if best == nil || len(phys[i].GOPs) > len(best.GOPs) {
				best = &phys[i]
			}
		}
	}
	return best
}
