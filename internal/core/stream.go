package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/obs"
)

// This file implements the streaming read path: the same plan/snapshot
// phase as Read, but phase B yields output units — encoded GOPs for
// compressed reads, frame batches for raw reads — in order, as the
// parallel decode pipeline produces them, instead of buffering the full
// ReadResult. It exists for the serving layer: a network client can start
// consuming the first GOP while later GOPs still decode, and a client that
// disconnects cancels the remaining decode work instead of paying for an
// answer nobody will read.
//
// Differences from the batch path, by design:
//
//   - Raw streaming reads never cache-admit their result and no stream
//     drives deferred compression: admission needs the whole output in
//     memory, which for decoded frames is exactly what streaming avoids.
//     Compressed streams are the exception: their output GOPs are small
//     (roughly the response size), so the stream buffers them — bounded
//     by Options.StreamAdmitBytes — and admits the result as a
//     materialized view on clean EOF, exactly as a batch Read would.
//     That is what keeps a serving layer's hot transcode windows from
//     re-paying decode + re-encode on every request: the second read of
//     an admitted window plans as pure passthrough. A serving layer that
//     wants whole-response reuse still caches encoded responses itself
//     (see internal/server).
//   - Decode memory is bounded twice over: at most ~2*Workers units are
//     produced ahead of the consumer, and the IO-prefetch stage fetches
//     at most 2*Workers stored GOPs ahead of the decode workers (see
//     startPrefetch in reader.go); a decoded GOP's frames are released
//     once the last unit that references them has been produced.
//     Passthrough bytes are the exception: phase A snapshots aligned
//     same-format GOPs emitted as-is under the video lock, so a pure-
//     passthrough read holds its encoded response up front — compressed
//     bytes, roughly the response size, orders of magnitude smaller than
//     the decoded frames the look-ahead window bounds. They carry no
//     decode work to overlap with, and keeping them consistent under the
//     lock preserves the byte-identical stream/batch contract.
//   - Output bytes are identical to Read: units are chunked exactly the
//     way executeJob/assembleCompressed chunk, and conversion/encoding
//     goes through the same pure functions.

// ReadBatch is one in-order unit of a streaming read's output: a run of
// decoded frames in the requested layout (raw reads) or a single encoded
// GOP (compressed reads).
type ReadBatch struct {
	Frames []*frame.Frame
	GOP    []byte
}

// FrameCount returns the number of frames the batch carries.
func (b *ReadBatch) FrameCount() int {
	if len(b.Frames) > 0 {
		return len(b.Frames)
	}
	if len(b.GOP) > 0 {
		if hd, err := codec.DecodeHeader(b.GOP); err == nil {
			return hd.FrameCount
		}
	}
	return 0
}

// streamUnit is one ordered output unit and its precomputed work: either a
// passthrough stored bitstream or a run of frame sources to transcode.
type streamUnit struct {
	pass   []byte       // non-nil: stored GOP emitted as-is, no CPU work
	srcs   []frameSrc   // transcode run (chunked to one output GOP)
	jobs   []*decodeJob // distinct decode jobs srcs depend on
	frames int          // output frames this unit carries (admission mbpp)

	batch *ReadBatch
	err   error
	done  chan struct{} // closed when batch/err is set
}

// errStreamClosed is the cancel cause installed by ReadStream.Close.
var errStreamClosed = errors.New("core: read stream closed")

// ReadStream is an in-order iterator over the output of a streaming read.
// Call Next until it returns io.EOF (or another error), then — or at any
// earlier point — Close. Next and Stats must be called from one goroutine;
// Close is safe to call from any goroutine (e.g. a connection watchdog)
// and cancels the remaining work.
type ReadStream struct {
	// Width, Height, FPS describe the output configuration, as in
	// ReadResult (valid immediately, before the first Next).
	Width  int
	Height int
	FPS    int

	s       *Store
	ctx     context.Context
	cancel  context.CancelCauseFunc
	r       resolvedSpec
	job     *readJob // fetch descriptors + BytesRead accumulator
	units   []*streamUnit
	next    int           // consumer cursor
	claim   atomic.Int64  // worker claim counter
	ahead   chan struct{} // bounds units materialized ahead of the consumer
	decoded atomic.Int64
	stats   ReadStats
	err     error // terminal consumer-side state (io.EOF or failure)

	// Cache-admission state for compressed streams (consumer goroutine
	// only). admitCap <= 0 means admission is off — disabled by options,
	// raw output, or an output that outgrew the bound mid-stream.
	video       string
	vsA         *videoState // phase-A generation witness, as in readOnce
	fragIDs     []int
	parentMSE   float64
	admitCap    int64
	admitGOPs   [][]byte
	admitBytes  int64
	admitFrames int
}

// ReadStream begins a streaming read. The plan/snapshot phase (phase A of
// the read pipeline) runs synchronously under the video lock, so a non-nil
// error here has the same meaning as from Read; the CPU-heavy work then
// runs on the store's worker pool as the caller iterates. Cancelling ctx —
// or calling Close — abandons the remaining decode work at the next GOP
// boundary. Safe for concurrent use.
//
// One contract difference from Read: if eviction under extreme budget
// pressure deletes a planned GOP between planning and its prefetch (a
// race the per-GOP re-snapshot cannot repair when the data is truly
// gone), a batch Read silently retries with a fresh plan, but a stream —
// which may already have delivered units of the old plan — surfaces the
// dangling-ref error to the consumer, who retries the request. Rewritten
// GOPs (joint compression, deferred lossless) are repaired in place on
// both paths.
func (s *Store) ReadStream(ctx context.Context, video string, spec ReadSpec) (*ReadStream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	var (
		out       *ReadResult
		job       *readJob
		fragIDs   []int
		parentMSE float64
		vsA       *videoState
	)
	planStart := time.Now()
	err := s.withVideos([]string{video}, func(held map[string]*videoState) error {
		var err error
		vsA = held[video]
		out, job, fragIDs, parentMSE, err = s.prepareRead(ctx, held, held[video], spec, false)
		return err
	})
	obs.Observe(ctx, s.pipe, obs.StagePlan, time.Since(planStart))
	if err != nil {
		return nil, err
	}

	st := &ReadStream{
		Width: out.Width, Height: out.Height, FPS: out.FPS,
		s: s, r: job.r, job: job, stats: out.Stats,
		video: video, vsA: vsA, fragIDs: fragIDs, parentMSE: parentMSE,
	}
	if job.r.codec.Compressed() && !s.opts.DisableCache && s.opts.StreamAdmitBytes > 0 {
		st.admitCap = s.opts.StreamAdmitBytes
	}
	st.ctx, st.cancel = context.WithCancelCause(ctx)
	st.units = buildStreamUnits(job)
	for _, u := range st.units {
		for _, j := range u.jobs {
			j.refs.Add(1)
		}
	}
	// The IO-prefetch stage runs ahead of the stream's decode workers
	// exactly as it does for batch reads; its fetchers stop when the
	// stream context is cancelled (Close, error, or EOF).
	s.startPrefetch(st.ctx, job.fetches)
	workers := s.opts.Workers
	if workers > len(st.units) {
		workers = len(st.units)
	}
	st.ahead = make(chan struct{}, 2*s.opts.Workers)
	for w := 0; w < workers; w++ {
		go st.worker()
	}
	return st, nil
}

// buildStreamUnits chunks a snapshotted readJob into ordered output units,
// mirroring the batch path's assembly exactly: passthrough segments emit
// as-is, and runs of transcoded frames are cut into GOPFrames-sized chunks
// with pending frames carried across adjacent transcode segments — so a
// compressed stream's GOPs are byte-identical to Read's GOPs, in the same
// order.
func buildStreamUnits(job *readJob) []*streamUnit {
	var units []*streamUnit
	var pending []frameSrc
	flush := func() {
		for i := 0; i < len(pending); i += job.gopFrames {
			j := i + job.gopFrames
			if j > len(pending) {
				j = len(pending)
			}
			units = append(units, newStreamUnit(pending[i:j]))
		}
		pending = nil
	}
	for si := range job.segs {
		seg := &job.segs[si]
		if seg.pass != nil {
			flush()
			units = append(units, &streamUnit{pass: seg.pass, frames: seg.passFrames, done: make(chan struct{})})
			continue
		}
		pending = append(pending, seg.srcs...)
	}
	flush()
	return units
}

// newStreamUnit builds a transcode unit, deduplicating its decode jobs.
func newStreamUnit(srcs []frameSrc) *streamUnit {
	u := &streamUnit{srcs: srcs, frames: len(srcs), done: make(chan struct{})}
	seen := make(map[*decodeJob]bool, len(srcs))
	for _, src := range srcs {
		if !seen[src.job] {
			seen[src.job] = true
			u.jobs = append(u.jobs, src.job)
		}
	}
	return u
}

// worker claims units in order and produces them. Claims happen strictly
// in increasing index order, so when a worker observes cancellation every
// unit before the first unclaimed index is guaranteed to complete — that
// is what lets Next surface errors in stream order.
func (st *ReadStream) worker() {
	for {
		// Backpressure: don't run ahead of the consumer by more than the
		// ahead window. Tokens are released by Next as units are consumed.
		select {
		case st.ahead <- struct{}{}:
		case <-st.ctx.Done():
			return
		}
		i := int(st.claim.Add(1)) - 1
		if i >= len(st.units) {
			return
		}
		u := st.units[i]
		u.batch, u.err = st.produce(u)
		if u.err != nil {
			st.cancel(u.err) // stops other workers at their next claim
		}
		close(u.done)
	}
}

// acquireSlot takes one slot of the store's worker pool, giving up if the
// stream is cancelled while waiting — a dead stream must not consume CPU
// slots it hasn't acquired yet. Callers release with <-st.s.workSem.
func (st *ReadStream) acquireSlot() error {
	select {
	case st.s.workSem <- struct{}{}:
		return nil
	case <-st.ctx.Done():
		return context.Cause(st.ctx)
	}
}

// produce computes one unit's output: lazy deduplicated GOP decode, frame
// conversion, and (for compressed output) re-encode, all on the worker
// pool's CPU budget.
func (st *ReadStream) produce(u *streamUnit) (*ReadBatch, error) {
	if u.pass != nil {
		return &ReadBatch{GOP: u.pass}, nil
	}
	s := st.s
	for _, j := range u.jobs {
		j.once.Do(func() {
			// Wait for the prefetched bytes BEFORE taking a CPU slot: a
			// unit stalled on IO must not occupy the pool.
			snap, err := j.resolve(st.ctx, s)
			if err != nil {
				j.runErr = err
				return
			}
			if j.runErr = st.acquireSlot(); j.runErr != nil {
				return
			}
			start := time.Now()
			j.runErr = j.decodeResolved(st.ctx, snap, s)
			obs.ObserveCodec(st.ctx, s.pipe, obs.StageDecode, string(j.codecID), time.Since(start))
			<-s.workSem
			if j.runErr == nil {
				st.decoded.Add(int64(j.decoded))
			}
		})
		if j.runErr != nil {
			return nil, j.runErr
		}
	}

	// Convert (and maybe encode) under one pool slot; parallelism comes
	// from units racing each other, bounded by the pool.
	if err := st.acquireSlot(); err != nil {
		return nil, err
	}
	defer func() { <-s.workSem }()
	frames := make([]*frame.Frame, 0, len(u.srcs))
	for _, src := range u.srcs {
		if err := context.Cause(st.ctx); err != nil {
			return nil, err
		}
		if len(src.job.frames) == 0 {
			return nil, fmt.Errorf("core: decoded GOP is empty")
		}
		idx := src.idx
		if idx >= len(src.job.frames) {
			idx = len(src.job.frames) - 1
		}
		f, err := convertFrame(src.job.frames[idx], src.p, st.r)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}

	batch := &ReadBatch{Frames: frames}
	if st.r.codec.Compressed() {
		start := time.Now()
		data, _, err := codec.EncodeGOP(frames, st.r.codec, st.r.quality)
		obs.ObserveCodec(st.ctx, s.pipe, obs.StageEncode, string(st.r.codec), time.Since(start))
		if err != nil {
			return nil, err
		}
		batch = &ReadBatch{GOP: data}
	}
	// Release decoded source frames once the last unit that needs them has
	// been produced, keeping streaming memory bounded.
	for _, j := range u.jobs {
		if j.refs.Add(-1) == 0 {
			j.frames = nil
		}
	}
	return batch, nil
}

// Next returns the next output unit in stream order, io.EOF after the
// last one, or the first error (in stream order) the read hit. After a
// non-EOF error the stream is dead and Next keeps returning that error.
func (st *ReadStream) Next() (*ReadBatch, error) {
	if st.err != nil {
		if st.err == io.EOF {
			return nil, io.EOF
		}
		return nil, st.err
	}
	if st.next >= len(st.units) {
		st.maybeAdmit()
		st.finish(io.EOF)
		return nil, io.EOF
	}
	u := st.units[st.next]
	// Prefer a completed unit over cancellation: an error at a later unit
	// cancels the stream context, but every earlier CLAIMED unit still
	// runs to completion, and its output is still valid — so on
	// cancellation, give up on this unit only if no worker claimed it
	// (then nobody will close done). Claims are ordered, so claim > next
	// means exactly that this unit was claimed.
	select {
	case <-u.done:
	case <-st.ctx.Done():
		if int(st.claim.Load()) > st.next {
			<-u.done // claimed units always complete; deliver in order
			break
		}
		st.finish(context.Cause(st.ctx))
		return nil, st.err
	}
	if u.err != nil {
		st.finish(u.err)
		return nil, st.err
	}
	st.next++
	select {
	case <-st.ahead: // free one backpressure token
	default:
	}
	batch := u.batch
	u.batch = nil
	if st.admitCap > 0 && batch.GOP != nil {
		// Buffer the encoded GOP for EOF admission. The slice is shared
		// with the consumer, never copied: admission writes it out as-is.
		st.admitGOPs = append(st.admitGOPs, batch.GOP)
		st.admitBytes += int64(len(batch.GOP))
		st.admitFrames += u.frames
		if st.admitBytes > st.admitCap {
			// Outgrew the bound: stream on without admitting.
			st.admitCap, st.admitGOPs = 0, nil
		}
	}
	return batch, nil
}

// maybeAdmit runs the batch path's phase C for a compressed stream that
// reached clean EOF with its whole encoded output buffered: re-acquire
// the video, verify it is still the one phase A planned against, and
// cache-admit the output as a materialized view. Failures are swallowed —
// the stream already delivered its bytes; admission is an optimization,
// not part of the read's contract.
func (st *ReadStream) maybeAdmit() {
	if st.admitCap <= 0 || len(st.admitGOPs) == 0 {
		return
	}
	st.admitCap = 0 // idempotence: admit at most once
	s := st.s
	vs := s.acquire(st.video)
	if vs == nil {
		return
	}
	defer vs.mu.Unlock()
	if vs != st.vsA {
		return // deleted (or deleted and recreated) while streaming
	}
	job := &readJob{r: st.r, outGOPs: st.admitGOPs}
	if pixels := int64(st.r.roiW) * int64(st.r.roiH) * int64(st.admitFrames); pixels > 0 {
		job.mbpp = float64(st.admitBytes) * 8 / float64(pixels)
	}
	admitStart := time.Now()
	admitted, err := s.admitLocked(vs, job, st.fragIDs, st.parentMSE)
	obs.Observe(st.ctx, s.pipe, obs.StageCacheAdmit, time.Since(admitStart))
	if err == nil && admitted {
		st.stats.Admitted = true
	}
	st.admitGOPs = nil
}

// finish records the stream's terminal state and stops the workers.
func (st *ReadStream) finish(err error) {
	if st.err == nil {
		st.err = err
		st.cancel(err)
	}
}

// Close cancels any remaining work. It is safe to call from any goroutine,
// multiple times, and after Next has returned io.EOF (where it is a
// no-op). It never blocks on in-flight decode work.
func (st *ReadStream) Close() error {
	st.cancel(errStreamClosed)
	return nil
}

// Stats reports the read's execution statistics. Plan fields are valid
// immediately; GOPsDecoded and BytesRead grow as the stream progresses
// (prefetched GOP bytes count once fetched). Admitted becomes true only
// after a compressed stream reached clean EOF and its buffered output was
// cache-admitted (see Options.StreamAdmitBytes); raw streams never admit.
func (st *ReadStream) Stats() ReadStats {
	stats := st.stats
	stats.GOPsDecoded = int(st.decoded.Load())
	stats.BytesRead += st.job.bytesRead.Load()
	return stats
}
