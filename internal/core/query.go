package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/frame"
	"repro/internal/index"
	"repro/internal/obs"
)

// This file implements predicate reads (ReadWhere / ReadStreamWhere):
// the analytics read mode that answers "frames matching P over [t0,t1)"
// from the temporal index and the per-GOP feature summaries, decoding
// only candidate GOPs on the same unit executor every read runs on.
//
// The plan is three steps, the first two free at query time:
//
//  1. index.Temporal over the original view's GOP spans restricts the
//     scan to GOPs overlapping [t0, t1).
//  2. Each candidate's GOPSummary is tested with pred.CanMatch: bounds
//     that prove the predicate false on every frame skip the GOP
//     entirely — it is never fetched or decoded. Summaries are sound
//     over-approximations (see summary.go), so skipping never loses a
//     match; GOPs without a summary are decoded conservatively.
//  3. Each surviving GOP is one unit of the phase-B executor (prefetch
//     window, CPU-pool decode, stale-fetch repair, in-order delivery);
//     in place of convert, the exact predicate is applied per frame and
//     matches are returned as RGB frames — byte-identical to a full raw
//     RGB read of the same video filtered client-side with
//     AnalyzeFrames, which the parity suite pins. ReadWhere drains the
//     stream ReadStreamWhere returns.
//  4. The per-frame analysis the exact predicate needs (motion and
//     detections, analyzeRGB) is looked up in the store's analysis memo
//     (memo.go) first, under a SHA-256 of the bytes and recipe the unit
//     actually decoded. A GOP analysed since the store opened skips
//     detection and motion; only its matched frames are converted for
//     delivery. A rewrite that changes the pixels changes the key, so
//     the memo never serves an analysis of other pixels.
//
// Predicate reads always scan the original physical view: summaries are
// computed from the original's reconstructed frames, and evaluating
// against a transcoded cached view would change the pixels under the
// predicate. They deliberately skip cache admission and LRU touches —
// a filtered frame subset is not a materialized view, and an analytics
// sweep should not perturb the eviction order of interactive reads.

// QueryStats instruments one predicate read.
type QueryStats struct {
	// GOPsConsidered is the number of GOPs overlapping the interval.
	GOPsConsidered int
	// GOPsSkipped is how many of those the summary bounds pruned
	// without fetching or decoding.
	GOPsSkipped int
	// GOPsDecoded is the number of GOP streams actually decoded.
	GOPsDecoded int
	// NoSummary counts candidate GOPs that had no summary and were
	// decoded conservatively (pre-summary stores before Maintain
	// backfills them, or GOPs invalidated by joint compression).
	NoSummary int
	// FramesScanned / FramesMatched count exact predicate evaluations
	// and hits; their ratio is the query's selectivity.
	FramesScanned int
	FramesMatched int
	// BytesRead is the stored bytes fetched.
	BytesRead int64
	// AnalysisReused is how many of the decoded GOPs took their
	// per-frame analysis from the store's memo instead of running
	// detection and motion again.
	AnalysisReused int
}

// Match is one frame satisfying the predicate.
type Match struct {
	// Index is the source frame index in the original video.
	Index int
	// Time is the frame's position in seconds (Index / source fps).
	Time float64
	// Frame is the matched frame in RGB at source resolution.
	Frame *frame.Frame
	// Info is the frame's content record (motion, detections) — the
	// values the predicate matched against.
	Info FrameInfo
}

// QueryResult is a completed batch predicate read.
type QueryResult struct {
	Width, Height, FPS int
	Matches            []Match
	Stats              QueryStats
}

// QueryBatch is one streamed group of matches: all matching frames of
// one decoded GOP, in frame order.
type QueryBatch struct {
	Matches []Match
}

// queryUnit is one candidate GOP of a predicate read.
type queryUnit struct {
	job    *decodeJob
	start  int // phys frame index of the GOP's first frame
	lo, hi int // local frame range [lo, hi) inside the interval

	// Phase-B outputs.
	matches []Match
	scanned int
	reused  bool // the analysis came from the memo
}

// queryJob carries one predicate read from phase A to phase B.
type queryJob struct {
	width, height, fps int
	units              []*queryUnit
	fetches            []*gopFetch
	ctr                readCounters
	stats              QueryStats // planning-time counters
}

// FrameWindow maps the half-open interval [t0, t1) onto source frame
// indices [i0, i1) at the given frame rate — the exact window predicate
// reads scan, exported so clients can reproduce match sets from a full
// read.
func FrameWindow(fps int, t0, t1 float64) (int, int) {
	i0 := int(math.Floor(t0*float64(fps) + timeEps))
	i1 := int(math.Ceil(t1*float64(fps) - timeEps))
	if i0 < 0 {
		i0 = 0
	}
	if i1 < i0 {
		i1 = i0
	}
	return i0, i1
}

// ReadWhere scans [t0, t1) of the video's original frames and returns
// those matching pred, consulting the temporal index and per-GOP
// summaries to decode only GOPs that can match. t1 <= 0 means the end
// of the video. Safe for concurrent use.
func (s *Store) ReadWhere(video string, pred Predicate, t0, t1 float64) (*QueryResult, error) {
	return s.ReadWhereContext(context.Background(), video, pred, t0, t1)
}

// ReadWhereContext is ReadWhere with cancellation (the same promptness
// contract as ReadContext: workers stop between GOP-granular tasks).
func (s *Store) ReadWhereContext(ctx context.Context, video string, pred Predicate, t0, t1 float64) (*QueryResult, error) {
	out, err := s.queryOnce(ctx, video, pred, t0, t1, false)
	if errors.Is(err, errDanglingRef) {
		// Same race as ReadContext: a planned GOP moved between phase A
		// and its fetch; the eager under-lock snapshot is immune.
		return s.queryOnce(ctx, video, pred, t0, t1, true)
	}
	return out, err
}

// queryOnce runs one predicate read attempt by draining its stream.
func (s *Store) queryOnce(ctx context.Context, video string, pred Predicate, t0, t1 float64, eager bool) (*QueryResult, error) {
	st, err := s.openQueryStream(ctx, video, pred, t0, t1, eager)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := &QueryResult{Width: st.Width, Height: st.Height, FPS: st.FPS}
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out.Matches = append(out.Matches, b.Matches...)
	}
	out.Stats = st.Stats()
	return out, nil
}

// prepareQuery is phase A: under the video lock, restrict to GOPs
// overlapping the interval via the temporal index, prune by summary
// bounds, and snapshot the survivors' decode recipes.
func (s *Store) prepareQuery(ctx context.Context, video string, pred Predicate, t0, t1 float64, eager bool) (*queryJob, error) {
	if pred == nil {
		return nil, fmt.Errorf("%w: nil predicate", ErrInvalidSpec)
	}
	job := &queryJob{}
	planStart := time.Now()
	err := s.withVideos([]string{video}, func(held map[string]*videoState) error {
		vs := held[video]
		v := vs.meta
		orig := vs.original()
		if orig == nil || len(orig.GOPs) == 0 {
			job.units, job.fetches = nil, nil
			job.stats = QueryStats{}
			return nil // nothing written yet: empty result
		}
		end := t1
		if end <= 0 {
			end = v.Duration
		}
		// NaN compares false against everything, so test finiteness
		// explicitly or a NaN bound would slip past the range check.
		if math.IsNaN(t0) || math.IsInf(t0, 0) || math.IsNaN(end) || math.IsInf(end, 0) {
			return fmt.Errorf("%w: non-finite interval bound", ErrInvalidSpec)
		}
		if t0 < 0 || end < t0 || end > v.Duration+timeEps {
			return fmt.Errorf("%w: interval [%g, %g) outside [0, %g)", ErrInvalidSpec, t0, end, v.Duration)
		}
		job.width, job.height, job.fps = orig.Width, orig.Height, orig.FPS
		i0, i1 := FrameWindow(orig.FPS, t0, end)

		// The temporal index over the original's GOP spans names the
		// candidate set; everything outside [t0, end) is never touched.
		spans := make([]index.Span, len(orig.GOPs))
		for i := range orig.GOPs {
			g := &orig.GOPs[i]
			start, stop := orig.gopSpan(g)
			spans[i] = index.Span{Seq: g.Seq, Start: start, End: stop}
		}
		idx, err := index.NewTemporal(spans)
		if err != nil {
			return err
		}

		c := &snapCollector{ctx: ctx, stats: &ReadStats{}, eager: eager, ctr: &job.ctr}
		for _, sp := range idx.Covering(t0, end) {
			g := findGOP(orig, sp.Seq)
			if g == nil {
				continue
			}
			lo, hi := i0-g.StartFrame, i1-g.StartFrame
			if lo < 0 {
				lo = 0
			}
			if hi > g.Frames {
				hi = g.Frames
			}
			if hi <= lo {
				continue
			}
			job.stats.GOPsConsidered++
			if g.Summary == nil {
				job.stats.NoSummary++
			} else if !pred.CanMatch(g.Summary) {
				job.stats.GOPsSkipped++
				continue
			}
			snap, err := s.snapshotGOP(held, vs, orig, g, c)
			if err != nil {
				return err
			}
			dj := &decodeJob{
				snap:  snap,
				key:   jobKey{video: video, phys: orig.ID, seq: g.Seq, from: 0, to: -1},
				ctr:   &job.ctr,
				from:  0,
				to:    -1,
				keyed: true,
			}
			job.units = append(job.units, &queryUnit{job: dj, start: g.StartFrame, lo: lo, hi: hi})
		}
		job.stats.BytesRead = c.stats.BytesRead
		job.fetches = c.fetches
		return nil
	})
	obs.Observe(ctx, s.pipe, obs.StagePlan, time.Since(planStart))
	if err != nil {
		return nil, err
	}
	return job, nil
}

// scan applies the exact predicate to the unit's decoded frames. The
// analysis comes from the memo when these pixels were analysed before;
// otherwise it runs on the RGB conversions — the same frame.Convert the
// raw read path applies — and is memoized. Either way matched frames are
// byte-identical to a full raw RGB read filtered client-side.
func (u *queryUnit) scan(memo *analysisMemo, pred Predicate, fps int) {
	frames := u.job.frames
	infos, reused := memo.get(u.job.inputKey)
	var rgb []*frame.Frame
	if reused {
		u.reused = true
	} else {
		rgb, infos = analyzeRGB(frames)
		memo.put(u.job.inputKey, infos)
	}
	hi := u.hi
	if hi > len(infos) {
		hi = len(infos)
	}
	for j := u.lo; j < hi; j++ {
		u.scanned++
		if !pred.Match(infos[j]) {
			continue
		}
		var f *frame.Frame
		if reused {
			f = toRGB(frames[j])
		} else {
			f = rgb[j]
		}
		idx := u.start + j
		u.matches = append(u.matches, Match{
			Index: idx,
			Time:  float64(idx) / float64(fps),
			Frame: f,
			Info:  infos[j],
		})
	}
	// The matches retain only their own frames; drop the decoded GOP.
	u.job.frames = nil
}

// QueryStream is an in-order streaming predicate read: Next returns the
// matches of one decoded GOP at a time, skipping GOPs with no matches,
// while later candidates prefetch and decode ahead.
type QueryStream struct {
	// Width, Height, FPS describe the source frames matches are drawn
	// from (frames are RGB at source resolution).
	Width, Height, FPS int

	job   *queryJob
	exec  *unitExec
	stats QueryStats
}

// ReadStreamWhere opens a streaming predicate read over [t0, t1) (t1 <=
// 0 means the end of the video). The returned stream must be drained to
// io.EOF or closed. Planning, pruning, and decode mechanics match
// ReadWhere exactly; only delivery differs.
func (s *Store) ReadStreamWhere(ctx context.Context, video string, pred Predicate, t0, t1 float64) (*QueryStream, error) {
	return s.openQueryStream(ctx, video, pred, t0, t1, false)
}

// openQueryStream runs phase A and starts the executor with one unit per
// candidate GOP: decode it, then evaluate the predicate on its frames.
func (s *Store) openQueryStream(ctx context.Context, video string, pred Predicate, t0, t1 float64, eager bool) (*QueryStream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	job, err := s.prepareQuery(ctx, video, pred, t0, t1, eager)
	if err != nil {
		return nil, err
	}
	st := &QueryStream{Width: job.width, Height: job.height, FPS: job.fps, job: job, stats: job.stats}
	st.exec = s.startUnits(ctx, len(job.units), job.fetches, func(ctx context.Context, i int) error {
		u := job.units[i]
		if err := u.job.run(ctx, s); err != nil {
			return err
		}
		u.scan(s.memo, pred, job.fps)
		return nil
	})
	return st, nil
}

// Next returns the next non-empty batch of matches in frame order, or
// io.EOF once every candidate GOP has been scanned. After a non-nil
// error the stream is dead and Next keeps returning that error.
func (st *QueryStream) Next() (*QueryBatch, error) {
	for {
		i, err := st.exec.next()
		if err != nil {
			return nil, err
		}
		u := st.job.units[i]
		st.stats.FramesScanned += u.scanned
		st.stats.FramesMatched += len(u.matches)
		if u.reused {
			st.stats.AnalysisReused++
		}
		if len(u.matches) > 0 {
			return &QueryBatch{Matches: u.matches}, nil
		}
	}
}

// Close cancels the stream. Safe to call at any point, from any
// goroutine, and more than once; after Close, Next reports the
// cancellation.
func (st *QueryStream) Close() error {
	st.exec.cancel(errStreamClosed)
	return nil
}

// Stats reports the stream's counters: planning-time values (considered
// / skipped / no-summary) are complete as soon as the stream opens, the
// decode and match counters once Next has returned io.EOF. Call it from
// the goroutine consuming Next.
func (st *QueryStream) Stats() QueryStats {
	stats := st.stats
	stats.GOPsDecoded = int(st.job.ctr.decoded.Load())
	stats.BytesRead += st.job.ctr.bytes.Load()
	return stats
}
