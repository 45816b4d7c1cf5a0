package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/lossless"
	"repro/internal/storage"
)

// This file implements deferred compression (Section 5.2): when a video's
// stored size exceeds a threshold fraction of its budget, uncompressed
// cache entries are losslessly compressed — last-in-eviction-order first
// (the entry least likely to be evicted) — at a level that scales linearly
// with the remaining budget.

// deferredPressureLocked performs one deferred-compression step if the
// video is over its activation threshold. It is invoked by uncompressed
// reads, after writes, and by the background maintenance loop. Caller
// holds the video's lock.
func (s *Store) deferredPressureLocked(vs *videoState) error {
	v := vs.meta
	if s.opts.DisableDeferred || v.Budget <= 0 {
		return nil
	}
	used := vs.totalBytes()
	if float64(used) < s.deferredThreshold*float64(v.Budget) {
		return nil
	}
	remaining := 1 - float64(used)/float64(v.Budget)
	level := lossless.LevelForBudget(remaining)
	_, err := s.compressOneLocked(vs, level)
	return err
}

// DeferredLevel reports the compression level the controller would use for
// the video right now (Figure 13 instrumentation); 0 means deferred
// compression is currently inactive. Safe for concurrent use.
func (s *Store) DeferredLevel(video string) int {
	vs := s.acquire(video)
	if vs == nil {
		return 0
	}
	defer vs.mu.Unlock()
	v := vs.meta
	if s.opts.DisableDeferred || v.Budget <= 0 {
		return 0
	}
	used := vs.totalBytes()
	if float64(used) < s.deferredThreshold*float64(v.Budget) {
		return 0
	}
	return lossless.LevelForBudget(1 - float64(used)/float64(v.Budget))
}

// compressOneLocked losslessly compresses the uncompressed GOP least
// likely to be evicted (last in scorePagesLocked's eviction order).
// Returns whether any entry was compressed. Caller holds the video's
// lock.
func (s *Store) compressOneLocked(vs *videoState, level int) (bool, error) {
	v := vs.meta
	cands := s.scorePagesLocked(vs, lruGamma, lruZeta, func(p *PhysMeta, g *GOPMeta) bool {
		return p.Codec == codec.Raw && g.Lossless == 0 && g.Joint == nil && g.DupOf == nil &&
			!s.pins.pinned(v.Name, p, g)
	})
	if len(cands) == 0 {
		return false, nil
	}
	c := cands[len(cands)-1]
	g := findGOP(c.phys, c.seq)
	data, err := s.readGOP(context.Background(), v.Name, c.phys.Dir, g.Seq, g.Bytes)
	if err != nil {
		return false, err
	}
	block, err := lossless.Recompress(data)
	if err != nil || len(block) >= len(data) {
		// ls cannot take it, or it is incompressible: mark it so it is
		// not retried forever.
		g.Lossless = -1
		return false, s.savePhys(v.Name, c.phys)
	}
	if err := s.files.WriteGOP(v.Name, c.phys.Dir, g.Seq, block); err != nil {
		return false, err
	}
	g.Lossless = level
	g.Bytes = int64(len(block))
	return true, s.savePhys(v.Name, c.phys)
}

// backfillBudget bounds how many GOPs one Maintain pass summarizes per
// video: the pass holds the video's lock, so backfilling a large
// pre-summary store must stay incremental rather than stall readers for
// one long pass.
const backfillBudget = 16

// backfillSummariesLocked computes feature summaries for original GOPs
// that lack one — stores written before summaries existed, ingest
// decode-back failures, and GOPs whose summaries were invalidated by
// joint compression or duplicate elision. Each GOP is decoded from the
// same recipe predicate reads snapshot (read at once, under the held
// lock — the compressOneLocked idiom: CPU work runs under the video lock
// and never touches workSem, which a lock-holder must not acquire),
// so the recomputed bounds are exact over the reconstructed pixels
// queries decode. GOPs whose references escape this video (cross-video
// joint partners or duplicate targets) are skipped and stay summaryless:
// predicate reads keep decoding them conservatively. Caller holds the
// video's lock.
func (s *Store) backfillSummariesLocked(vs *videoState) error {
	p := vs.original()
	if p == nil {
		return nil
	}
	held := map[string]*videoState{vs.meta.Name: vs}
	filled := 0
	for i := range p.GOPs {
		if filled >= backfillBudget {
			break
		}
		g := &p.GOPs[i]
		if g.Summary != nil {
			continue
		}
		snap, err := s.loadGOPLocked(context.Background(), held, vs, p, g)
		if err != nil {
			continue
		}
		frames, _, _, err := decodeSnap(snap, 0, -1)
		if err != nil {
			continue
		}
		g.Summary = summarizeFrames(frames)
		filled++
	}
	if filled == 0 {
		return nil
	}
	return s.savePhys(vs.meta.Name, p)
}

// tempSweepAge is how old a crash-orphaned write temp must be before
// maintenance reclaims it. Live atomicWrite temps exist for
// milliseconds; an hour leaves a colossal safety margin while still
// reclaiming crash leftovers on the first maintenance pass after them.
const tempSweepAge = time.Hour

// Maintain runs one background maintenance pass over every video:
// deferred compression pressure and physical video compaction, then a
// sweep of crash-orphaned write temp files (unique temp names mean no
// later write ever renames an orphan away, and doing the full-tree walk
// here keeps it off the open and foreground paths), and finally — when
// the backend keeps redundant copies — a replication scrub that
// re-copies missing or stale replicas from a healthy copy so a
// briefly-degraded shard root converges back to full R-way replication
// (ScrubStats are surfaced via ReplicationStats and vssd /metrics). The
// paper runs maintenance "in a background thread when no other requests
// are being executed" and "periodically and non-quiescently". It holds
// at most one video's lock at a time, so it never blocks foreground
// reads and writes of other videos.
func (s *Store) Maintain() error {
	for _, name := range s.videoNames() {
		vs := s.acquire(name)
		if vs == nil {
			continue // deleted while we iterated
		}
		err := func() error {
			defer vs.mu.Unlock()
			if err := s.deferredPressureLocked(vs); err != nil {
				return err
			}
			if _, err := s.compactLocked(vs); err != nil {
				return err
			}
			return s.backfillSummariesLocked(vs)
		}()
		if err != nil {
			return err
		}
	}
	// The scrub must run even when the temp sweep fails: a root degraded
	// enough to error the sweep is exactly the situation whose lost
	// replicas the scrub re-copies onto the healthy roots (Scrub itself
	// tolerates unwalkable shards). Both errors surface, joined. The
	// catalog snapshot (Options.SnapshotCatalog) goes last so the
	// replicated copy reflects this pass's compaction and repairs.
	return errors.Join(s.files.SweepTemps(tempSweepAge), s.scrub(), s.snapshotCatalog())
}

// snapshotCatalog replicates the metadata catalog into the storage
// backend when Options.SnapshotCatalog is set: snapshot the catalog (WAL
// folded in, so the snapshot alone is full state), then write the bytes
// as a GOP at the reserved storage.CatalogSnapshotVideo address. The
// write rides the backend's ordinary path — fan-out, write-repair
// journal, everything — so on a replicated fleet every replica node ends
// up holding the catalog. RestoreCatalog is the inverse.
func (s *Store) snapshotCatalog() error {
	if !s.opts.SnapshotCatalog {
		return nil
	}
	data, err := s.cat.SnapshotBytes()
	if err != nil {
		return err
	}
	return s.files.WriteGOP(storage.CatalogSnapshotVideo, storage.CatalogSnapshotDir, 0, data)
}

// repairInterval is how often the background loop drains a replicated
// backend's write-repair journal; a variable so tests can shorten it.
var repairInterval = 5 * time.Second

// PassStats counts one kind of background pass since the store opened.
type PassStats struct {
	Passes   int64 `json:"passes"`
	Failures int64 `json:"failures"`
	// LastError is the most recent failure's message ("" before any).
	LastError string `json:"last_error"`
	// LastMillis is how long the most recent pass took.
	LastMillis float64 `json:"last_ms"`
}

// BackgroundStats reports the passes of the store's background loop
// (StartBackground): Maintain, and the write-repair journal drain.
type BackgroundStats struct {
	Maintain PassStats `json:"maintain"`
	Repair   PassStats `json:"repair"`
}

// BackgroundStats snapshots the background loop's pass counters. Safe
// for concurrent use.
func (s *Store) BackgroundStats() BackgroundStats {
	s.bgMu.Lock()
	defer s.bgMu.Unlock()
	return s.bg
}

// runPass runs one background pass and records its outcome in st.
func (s *Store) runPass(st *PassStats, pass func() error) {
	start := time.Now()
	err := pass()
	d := time.Since(start)
	s.bgMu.Lock()
	defer s.bgMu.Unlock()
	st.Passes++
	st.LastMillis = float64(d) / float64(time.Millisecond)
	if err != nil {
		st.Failures++
		st.LastError = err.Error()
	}
}

// StartBackground runs the store's one background loop until the
// returned stop function is called: Maintain every interval (never when
// interval <= 0) and, when the backend keeps two or more copies of each
// GOP, a drain of the write-repair journal every five seconds. No
// goroutine starts when there is nothing to do. stop (idempotent)
// returns after any in-flight pass, so the store may be closed right
// after it. Both passes are best-effort: a failed Maintain is retried on
// the next tick, and failed repairs re-queue. BackgroundStats reports
// every pass, its duration and the last failure.
func (s *Store) StartBackground(interval time.Duration) (stop func()) {
	sc := storage.AsScrubber(s.files)
	drain := sc != nil && sc.ReplicationStats().Replicas >= 2
	if interval <= 0 && !drain {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		var maintain, repair <-chan time.Time // nil channels never fire
		if interval > 0 {
			t := time.NewTicker(interval)
			defer t.Stop()
			maintain = t.C
		}
		if drain {
			t := time.NewTicker(repairInterval)
			defer t.Stop()
			repair = t.C
		}
		for {
			select {
			case <-done:
				return
			case <-maintain:
				s.runPass(&s.bg.Maintain, s.Maintain)
			case <-repair:
				s.runPass(&s.bg.Repair, func() error {
					_, err := sc.Repair()
					return err
				})
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(done)
		<-exited
	})
}
