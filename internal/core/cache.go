package core

import (
	"math"
	"sort"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quality"
	"repro/internal/storage"
)

// This file implements Section 4 of the paper: cache admission of read
// results as new physical videos, and the LRU_VSS eviction policy
// LRU_vss(f) = LRU(f) + γ·p(f) − ζ·r(f) + b(f) over GOP "pages".
//
// Locking: every function here carries the Locked suffix and requires the
// video's lock (videoState.mu) to be held by the caller.

// nrectClose reports approximate equality of normalized rects.
func nrectClose(a, b NRect) bool {
	const eps = 1e-6
	return math.Abs(a.X0-b.X0) < eps && math.Abs(a.Y0-b.Y0) < eps &&
		math.Abs(a.X1-b.X1) < eps && math.Abs(a.Y1-b.Y1) < eps
}

// matchesOutput reports whether a physical video already stores data in
// the output configuration of a read.
func matchesOutput(p *PhysMeta, r resolvedSpec) bool {
	return p.Codec == r.codec && p.Width == r.roiW && p.Height == r.roiH &&
		p.FPS == r.outFPS && nrectClose(p.ROI, r.roi) &&
		(!r.codec.Compressed() || p.Quality == r.quality)
}

// readOutput is a read's output as phase C offers it for admission.
type readOutput struct {
	frames    []*frame.Frame // raw output
	gops      [][]byte       // compressed output
	mbpp      float64        // compressed output: megabits per pixel
	sampleRef []*frame.Frame // batch reads: source frames of sampleGOP
	sampleGOP []byte         // one transcoded GOP for PSNR sampling
}

// admitLocked decides whether to cache the result of a read as a new
// physical video, and does so. Returns whether the result was admitted.
// The plan's fragments are revalidated against the video's current
// state, which may have changed since planning — admission runs after
// the lock was dropped for the compute phase.
func (s *Store) admitLocked(vs *videoState, job *readJob, out readOutput) (bool, error) {
	if s.opts.DisableCache {
		return false, nil
	}
	r, fragIDs, parentMSE := job.r, job.fragIDs, job.parentMSE
	frames, encoded, mbpp := out.frames, out.gops, out.mbpp
	v := vs.meta
	// A read served entirely by one fragment already in the output
	// configuration adds no information: skip.
	if len(fragIDs) == 1 {
		if p := vs.byID(fragIDs[0]); p != nil && matchesOutput(p, r) {
			return false, nil
		}
	}
	// An existing view in this configuration covering the interval makes
	// admission a duplicate: skip. (Under concurrency this is also what
	// keeps two identical parallel reads from caching the result twice:
	// admission is serialized on the video lock, so the second read sees
	// the first one's view here.)
	for _, p := range vs.phys {
		if matchesOutput(p, r) && covers(coverage(p), r.t1, r.t2) {
			return false, nil
		}
	}

	step := s.estimateStepMSE(r, mbpp)
	mse := step
	if parentMSE > 0 {
		mse = quality.ComposeMSE(parentMSE, step)
	}

	id := s.allocPhys(v)
	p := &PhysMeta{
		ID:      id,
		Dir:     storage.PhysicalDirName(id, r.roiW, r.roiH, r.outFPS, string(r.codec)),
		Width:   r.roiW,
		Height:  r.roiH,
		FPS:     r.outFPS,
		Codec:   r.codec,
		PixFmt:  r.format,
		Quality: r.quality,
		ROI:     r.roi,
		Start:   r.t1,
		MSE:     mse,
	}
	if r.codec.Compressed() {
		framesSoFar := 0
		for _, data := range encoded {
			hd, err := codec.DecodeHeader(data)
			if err != nil {
				return false, err
			}
			if err := s.files.WriteGOP(v.Name, p.Dir, len(p.GOPs), data); err != nil {
				return false, err
			}
			p.GOPs = append(p.GOPs, GOPMeta{
				Seq: len(p.GOPs), StartFrame: framesSoFar, Frames: hd.FrameCount,
				Bytes: int64(len(data)), LRU: v.Clock,
			})
			framesSoFar += hd.FrameCount
		}
		s.maybeSampleQuality(out.sampleRef, out.sampleGOP, mbpp)
	} else {
		// Raw views are cached in the requested pixel layout so identical
		// future reads are pure IO; phase B already produced the frames in
		// that layout.
		gopN := rawGOPFrames(s.rawBlockBytes, r.format, r.roiW, r.roiH, s.opts.GOPFrames)
		for i := 0; i < len(frames); i += gopN {
			j := min(i+gopN, len(frames))
			data, _, err := codec.EncodeGOP(frames[i:j], codec.Raw, 0)
			if err != nil {
				return false, err
			}
			if err := s.files.WriteGOP(v.Name, p.Dir, len(p.GOPs), data); err != nil {
				return false, err
			}
			p.GOPs = append(p.GOPs, GOPMeta{
				Seq: len(p.GOPs), StartFrame: i, Frames: j - i,
				Bytes: int64(len(data)), LRU: v.Clock,
			})
		}
	}
	vs.phys[id] = p
	if err := s.savePhys(v.Name, p); err != nil {
		return false, err
	}
	if err := s.saveVideo(v); err != nil {
		return false, err
	}
	if err := s.evictLocked(vs); err != nil {
		return false, err
	}
	// The new view may itself have been evicted immediately under a tight
	// budget; report admission based on survival.
	return len(p.GOPs) > 0, nil
}

// rawGOPFrames computes frames per raw GOP under the block-size cap.
func rawGOPFrames(blockBytes int64, fmtv frame.PixelFormat, w, h, maxFrames int) int {
	frameBytes := int64(fmtv.Size(w, h))
	if frameBytes >= blockBytes {
		return 1
	}
	n := int(blockBytes / frameBytes)
	if n > maxFrames {
		n = maxFrames
	}
	if n < 1 {
		n = 1
	}
	return n
}

// maybeSampleQuality periodically measures exact PSNR of one just-encoded
// GOP against its source frames to refine the MBPP->PSNR estimator
// (Section 3.2: "VSS periodically samples regions of compressed video,
// computes exact PSNR, and updates its estimate"). The sampling counter
// has its own lock (it is store-global, not per-video); the estimator
// locks itself.
func (s *Store) maybeSampleQuality(frames []*frame.Frame, gop []byte, mbpp float64) {
	if len(gop) == 0 || len(frames) == 0 {
		return
	}
	s.sampleMu.Lock()
	s.sampleCounter++
	due := s.sampleCounter%s.qualitySampleEvery == 0
	s.sampleMu.Unlock()
	if !due {
		return
	}
	dec, _, err := codec.DecodeGOP(gop)
	if err != nil || len(dec) == 0 {
		return
	}
	n := len(dec)
	if n > len(frames) {
		n = len(frames)
	}
	var sum float64
	for i := 0; i < n; i++ {
		ref := frames[i]
		if ref.Format != dec[i].Format {
			ref = ref.Convert(dec[i].Format)
		}
		p, err := quality.PSNR(ref, dec[i])
		if err != nil {
			return
		}
		sum += p
	}
	s.est.Observe(mbpp, sum/float64(n))
}

// pageCand is one GOP page scored by LRU_VSS.
type pageCand struct {
	phys  *PhysMeta
	seq   int
	score float64
	bytes int64
}

// scorePagesLocked scores the GOP pages keep admits with LRU_VSS
// (Section 4): last use, plus γ times the distance to the nearer end of
// the physical video (reduces fragmentation), minus ζ times redundancy
// (prefers pages with higher-quality alternatives). It returns them in
// eviction order: ascending score, ties by (phys ID, seq), never by map
// order. Caller holds the video's lock.
func (s *Store) scorePagesLocked(vs *videoState, gamma, zeta float64, keep func(*PhysMeta, *GOPMeta) bool) []pageCand {
	var cands []pageCand
	for _, p := range vs.phys {
		n := len(p.GOPs)
		for i := range p.GOPs {
			g := &p.GOPs[i]
			if !keep(p, g) {
				continue
			}
			pos := min(i, n-1-i)
			score := float64(g.LRU) + gamma*float64(pos) - zeta*float64(s.redundancyLocked(vs, p, g))
			cands = append(cands, pageCand{phys: p, seq: g.Seq, score: score, bytes: g.Bytes})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.score != b.score {
			return a.score < b.score
		}
		if a.phys.ID != b.phys.ID {
			return a.phys.ID < b.phys.ID
		}
		return a.seq < b.seq
	})
	return cands
}

// evictLocked enforces the video's storage budget using LRU_VSS
// (Section 4), evicting pages in scorePagesLocked order; pages that are
// the only sufficiently high-quality cover of their time range are never
// evicted.
func (s *Store) evictLocked(vs *videoState) error {
	v := vs.meta
	if v.Budget <= 0 {
		return nil
	}
	total := vs.totalBytes()
	if total <= v.Budget {
		return nil
	}
	gamma, zeta := lruGamma, lruZeta
	if s.opts.OrdinaryLRU {
		gamma, zeta = 0, 0
	}
	cands := s.scorePagesLocked(vs, gamma, zeta, func(p *PhysMeta, g *GOPMeta) bool {
		// The originally written video is the guaranteed baseline cover
		// (and may have an open streaming writer); its pages carry
		// b(f) = +inf. Jointly compressed pages stay: the partner video
		// needs the shared overlap stream to reconstruct. Pages a running
		// read has planned stay for this pass; that read gave them its
		// fresh LRU tick, so they sit at the end of the order anyway.
		return !p.Orig && g.Joint == nil && !s.pins.pinned(v.Name, p, g)
	})

	dirty := map[int]*PhysMeta{}
	for _, c := range cands {
		if total <= v.Budget {
			break
		}
		g := findGOP(c.phys, c.seq)
		if g == nil {
			continue
		}
		// Baseline-quality guard b(f): re-checked at eviction time because
		// earlier evictions may have removed alternative covers.
		if s.isLastQualityCoverLocked(vs, c.phys, g) {
			continue
		}
		if err := s.removeGOPLocked(vs, c.phys, g); err != nil {
			return err
		}
		total -= c.bytes
		dirty[c.phys.ID] = c.phys
	}
	for _, p := range dirty {
		if len(p.GOPs) == 0 {
			if err := s.dropPhysLocked(vs, p); err != nil {
				return err
			}
			continue
		}
		if err := s.savePhys(v.Name, p); err != nil {
			return err
		}
	}
	return s.saveVideo(v)
}

// redundancyLocked computes r(f): the number of other fragments that cover
// this GOP's spatiotemporal range with strictly higher quality (lower
// accumulated MSE). A page with many better alternatives is cheap to lose.
func (s *Store) redundancyLocked(vs *videoState, p *PhysMeta, g *GOPMeta) int {
	a, b := p.gopSpan(g)
	count := 0
	for _, q := range vs.phys {
		if q.ID == p.ID || q.MSE >= p.MSE {
			continue // not strictly higher quality
		}
		if q.ROI.Contains(p.ROI) && covers(coverage(q), a, b) {
			count++
		}
	}
	return count
}

// isLastQualityCoverLocked implements b(f): a GOP is protected when no
// other fragment of lossless-grade quality (PSNR >= τ vs the original)
// covers its span.
func (s *Store) isLastQualityCoverLocked(vs *videoState, p *PhysMeta, g *GOPMeta) bool {
	tauMSE := quality.MSEFromPSNR(quality.Lossless)
	if p.MSE > tauMSE && !p.Orig {
		return false // not itself part of the quality cover
	}
	a, b := p.gopSpan(g)
	for _, q := range vs.phys {
		if q.ID == p.ID {
			continue
		}
		if (q.MSE <= tauMSE || q.Orig) && q.ROI.Contains(p.ROI) && q.Width >= p.Width && covers(coverage(q), a, b) {
			return false
		}
	}
	return true
}

// findGOP locates a GOP by sequence number.
func findGOP(p *PhysMeta, seq int) *GOPMeta {
	for i := range p.GOPs {
		if p.GOPs[i].Seq == seq {
			return &p.GOPs[i]
		}
	}
	return nil
}

// removeGOPLocked deletes one GOP page (file and metadata).
func (s *Store) removeGOPLocked(vs *videoState, p *PhysMeta, g *GOPMeta) error {
	if g.DupOf == nil {
		if err := s.files.DeleteGOP(vs.meta.Name, p.Dir, g.Seq); err != nil {
			return err
		}
	}
	for i := range p.GOPs {
		if p.GOPs[i].Seq == g.Seq {
			p.GOPs = append(p.GOPs[:i], p.GOPs[i+1:]...)
			break
		}
	}
	return nil
}

// dropPhysLocked removes an empty physical video entirely.
func (s *Store) dropPhysLocked(vs *videoState, p *PhysMeta) error {
	if err := s.files.DeletePhysical(vs.meta.Name, p.Dir); err != nil {
		return err
	}
	delete(vs.phys, p.ID)
	return s.cat.Delete("phys", physKey(vs.meta.Name, p.ID))
}
