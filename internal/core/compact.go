package core

// This file implements physical video compaction (Section 5.3): pairs of
// cached views with contiguous time ranges and identical spatial/physical
// configurations are merged by hard-linking the GOPs of the second into
// the first, reducing the number of fragments a read must consider.
// Compaction is a single-video mutation and runs under that video's lock.

// CompactVideo merges contiguous same-configuration physical videos of
// one logical video and returns the number of merges performed. Safe for
// concurrent use.
func (s *Store) CompactVideo(video string) (int, error) {
	vs := s.acquire(video)
	if vs == nil {
		return 0, ErrNotFound
	}
	defer vs.mu.Unlock()
	return s.compactLocked(vs)
}

// compactLocked runs merges to a fixed point. Caller holds the video's
// lock.
func (s *Store) compactLocked(vs *videoState) (int, error) {
	merges := 0
	for {
		a, b := s.findCompactablePairLocked(vs)
		if a == nil {
			return merges, nil
		}
		if err := s.mergeLocked(vs, a, b); err != nil {
			return merges, err
		}
		merges++
	}
}

// compatible reports whether two physical videos share a configuration
// that permits merging.
func compatible(a, b *PhysMeta) bool {
	return a.Codec == b.Codec && a.Width == b.Width && a.Height == b.Height &&
		a.FPS == b.FPS && a.Quality == b.Quality && a.PixFmt == b.PixFmt &&
		nrectClose(a.ROI, b.ROI) && !a.Orig && !b.Orig
}

// mergeable further requires plain GOPs: joint-compressed and duplicate
// pages carry cross-video references that a rename would dangle.
func mergeable(p *PhysMeta) bool {
	for i := range p.GOPs {
		if p.GOPs[i].Joint != nil || p.GOPs[i].DupOf != nil {
			return false
		}
	}
	return len(p.GOPs) > 0
}

// pinnedAny reports whether a running read has planned any page of p.
func (s *Store) pinnedAny(vs *videoState, p *PhysMeta) bool {
	for i := range p.GOPs {
		if s.pins.pinned(vs.meta.Name, p, &p.GOPs[i]) {
			return true
		}
	}
	return false
}

// findCompactablePairLocked returns (a, b) where b starts exactly where a
// ends, or (nil, nil). Caller holds the video's lock.
func (s *Store) findCompactablePairLocked(vs *videoState) (*PhysMeta, *PhysMeta) {
	for _, a := range vs.phys {
		if !mergeable(a) {
			continue
		}
		aEnd := a.End()
		// a must be internally contiguous: a hole would break the merged
		// frame numbering.
		if len(coverage(a)) != 1 {
			continue
		}
		for _, b := range vs.phys {
			// Merging deletes b's directory, so a b with pages a running
			// read planned waits for a later pass.
			if a.ID == b.ID || !compatible(a, b) || !mergeable(b) || s.pinnedAny(vs, b) {
				continue
			}
			if len(coverage(b)) != 1 {
				continue
			}
			if b.Start > aEnd-timeEps && b.Start < aEnd+timeEps {
				return a, b
			}
		}
	}
	return nil, nil
}

// mergeLocked appends b's GOPs to a via hard links and removes b. Caller
// holds the video's lock.
//
// The linked GOPs are numbered past a's HIGHEST surviving sequence
// number, not from len(a.GOPs): eviction removes pages without
// renumbering, so once a has lost a page its length names a sequence
// number a live page still owns, and linking onto it would overwrite
// that page's file.
func (s *Store) mergeLocked(vs *videoState, a, b *PhysMeta) error {
	v := vs.meta
	frameOffset, nextSeq := 0, 0
	for i := range a.GOPs {
		g := &a.GOPs[i]
		frameOffset = max(frameOffset, g.StartFrame+g.Frames)
		nextSeq = max(nextSeq, g.Seq+1)
	}
	for i := range b.GOPs {
		g := b.GOPs[i]
		if err := s.files.LinkGOP(v.Name, b.Dir, g.Seq, v.Name, a.Dir, nextSeq); err != nil {
			return err
		}
		a.GOPs = append(a.GOPs, GOPMeta{
			Seq:        nextSeq,
			StartFrame: frameOffset + g.StartFrame,
			Frames:     g.Frames,
			Bytes:      g.Bytes,
			Lossless:   g.Lossless,
			LRU:        g.LRU,
			// The bytes are the same file, so the feature summary still
			// describes them; dropping it would cost a decode-back backfill.
			Summary: g.Summary,
		})
		nextSeq++
	}
	// The merged view's quality bound is the weaker of the two.
	if b.MSE > a.MSE {
		a.MSE = b.MSE
	}
	if err := s.savePhys(v.Name, a); err != nil {
		return err
	}
	return s.dropPhysLocked(vs, b)
}
