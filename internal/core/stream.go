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

// This file holds phase B of the read path — the one unit executor every
// read runs on (see reader.go) — and ReadStream, which hands its units to
// the caller in order as they are produced instead of buffering a
// ReadResult. ReadStream exists for the serving layer: a network client
// starts consuming the first GOP while later GOPs still decode, and a
// client that disconnects cancels the remaining work. Its output is
// byte-identical to Read, because Read is a drain of the same stream.
//
// Contract differences from Read:
//
//   - Raw streams never cache-admit their result: admission needs the
//     whole output in memory, which for decoded frames is exactly what
//     streaming avoids. Compressed streams buffer their encoded GOPs (up
//     to Store.streamAdmitBytes, roughly the response size) and admit
//     them on clean EOF, so a serving layer's hot transcode windows turn
//     into passthrough; one that outgrows the bound streams on without
//     admitting.
//   - Streams never drive deferred compression.
//   - A stream surfaces errDanglingRef — a planned GOP evicted between
//     planning and its fetch — instead of retrying: it may already have
//     delivered units of the old plan, so the consumer retries.

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

	batch  *ReadBatch     // produced output, handed out by Next
	sample []*frame.Frame // batch reads: encoder input of the sampled unit
}

// newStreamUnit builds a transcode unit, deduplicating its decode jobs and
// registering it as a consumer of each.
func newStreamUnit(srcs []frameSrc) *streamUnit {
	u := &streamUnit{srcs: srcs, frames: len(srcs)}
	seen := make(map[*decodeJob]bool, len(srcs))
	for _, src := range srcs {
		if !seen[src.job] {
			seen[src.job] = true
			src.job.refs.Add(1)
			u.jobs = append(u.jobs, src.job)
		}
	}
	return u
}

// unitExec is phase B: it produces units [0, n) on the store's worker
// pool and hands them out in order. Workers claim indices strictly in
// order, at most 2*Workers ahead of the consumer. A unit that fails stops
// further claims but cancels nothing: every earlier unit is already
// claimed and runs to completion, so next delivers all of them before it
// reports the failure — the first error in unit order. Cancellation (the
// caller's context, Close, or the consumer's terminal state) abandons the
// remaining work at the next unit boundary.
type unitExec struct {
	ctx     context.Context
	cancel  context.CancelCauseFunc
	produce func(ctx context.Context, i int) error
	done    []chan struct{} // done[i] closes once unit i is produced
	errs    []error
	claim   atomic.Int64
	stop    atomic.Bool   // a unit failed: claim nothing further
	ahead   chan struct{} // look-ahead tokens, returned as units are consumed
	pos     int           // consumer cursor
	err     error         // consumer's terminal state (io.EOF or failure)
}

// startUnits launches the executor over n units, with the IO-prefetch
// stage reading fetches ahead of it; both stop when the executor's
// context is cancelled.
func (s *Store) startUnits(ctx context.Context, n int, fetches []*gopFetch, produce func(ctx context.Context, i int) error) *unitExec {
	e := &unitExec{
		produce: produce,
		done:    make([]chan struct{}, n),
		errs:    make([]error, n),
		ahead:   make(chan struct{}, 2*s.opts.Workers),
	}
	for i := range e.done {
		e.done[i] = make(chan struct{})
	}
	e.ctx, e.cancel = context.WithCancelCause(ctx)
	s.startPrefetch(e.ctx, fetches)
	for w := 0; w < min(s.opts.Workers, n); w++ {
		go e.worker()
	}
	return e
}

func (e *unitExec) worker() {
	for {
		select {
		case e.ahead <- struct{}{}:
		case <-e.ctx.Done():
			return
		}
		if e.stop.Load() {
			return
		}
		i := int(e.claim.Add(1)) - 1
		if i >= len(e.done) {
			return
		}
		if e.errs[i] = e.produce(e.ctx, i); e.errs[i] != nil {
			e.stop.Store(true)
		}
		close(e.done[i])
	}
}

// next waits for the unit at the cursor and returns its index, io.EOF
// after the last one, or the first error in unit order. Once cancelled,
// it reports the cancellation. After any error it keeps returning it.
// Call from one goroutine.
func (e *unitExec) next() (int, error) {
	if e.err == nil && e.ctx.Err() != nil {
		e.finish(context.Cause(e.ctx))
	}
	if e.err != nil {
		return 0, e.err
	}
	if e.pos == len(e.done) {
		return 0, e.finish(io.EOF)
	}
	i := e.pos
	select {
	case <-e.done[i]:
	case <-e.ctx.Done():
		return 0, e.finish(context.Cause(e.ctx))
	}
	if err := e.errs[i]; err != nil {
		return 0, e.finish(err)
	}
	e.pos++
	select {
	case <-e.ahead: // free the unit's look-ahead token
	default:
	}
	return i, nil
}

// finish records the consumer's terminal state and stops the workers.
func (e *unitExec) finish(err error) error {
	if e.err == nil {
		e.err = err
		e.cancel(err)
	}
	return e.err
}

// acquireSlot takes one slot of the store's worker pool, giving up if ctx
// is cancelled while waiting — a dead read must not consume CPU slots it
// hasn't acquired yet. Callers release with <-s.workSem.
func (s *Store) acquireSlot(ctx context.Context) error {
	select {
	case s.workSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// errStreamClosed is the cancel cause installed by a stream's Close.
var errStreamClosed = errors.New("core: stream closed")

// streamAdmitBytes bounds the encoded output a compressed stream buffers
// for cache admission.
const streamAdmitBytes = 64 << 20

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

	s     *Store
	video string
	vsA   *videoState // phase-A generation witness for phase C
	job   *readJob
	exec  *unitExec

	// Batch compressed reads: the unit whose encoder input is kept for
	// PSNR sampling; -1 for none. Set before the workers start.
	sampleUnit int

	// Consumer-goroutine state for phase C.
	outBytes  int64 // encoded output so far
	outFrames int   // frames of that output
	admitCap  int64 // > 0: buffer compressed output for admission at EOF
	admitGOPs [][]byte
	admitted  bool
}

// ReadStream begins a streaming read. The plan/snapshot phase (phase A of
// the read pipeline) runs synchronously under the video lock, so a non-nil
// error here has the same meaning as from Read; the CPU-heavy work then
// runs on the store's worker pool as the caller iterates. Cancelling ctx —
// or calling Close — abandons the remaining decode work at the next GOP
// boundary. Safe for concurrent use.
func (s *Store) ReadStream(ctx context.Context, video string, spec ReadSpec) (*ReadStream, error) {
	return s.openReadStream(ctx, video, spec, false, false)
}

// openReadStream runs phase A and starts phase B. eager snapshots every
// stored byte under the lock instead of prefetching it. batch marks a
// stream Read drains: it keeps the PSNR sample and leaves admission to
// the drain.
func (s *Store) openReadStream(ctx context.Context, video string, spec ReadSpec, eager, batch bool) (*ReadStream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	st := &ReadStream{s: s, video: video, sampleUnit: -1}
	planStart := time.Now()
	err := s.withVideos([]string{video}, func(held map[string]*videoState) error {
		var err error
		st.vsA = held[video]
		st.job, err = s.prepareRead(ctx, held, st.vsA, spec, eager)
		return err
	})
	obs.Observe(ctx, s.pipe, obs.StagePlan, time.Since(planStart))
	if err != nil {
		return nil, err
	}
	r := st.job.r
	st.Width, st.Height, st.FPS = r.roiW, r.roiH, r.outFPS
	switch {
	case !r.codec.Compressed():
	case batch:
		// Admission refines the MBPP->PSNR estimator from the first
		// transcoded GOP and its source frames (Section 3.2).
		for i, u := range st.job.units {
			if u.pass == nil {
				st.sampleUnit = i
				break
			}
		}
	case !s.opts.DisableCache:
		st.admitCap = s.streamAdmitBytes
	}
	st.exec = s.startUnits(ctx, len(st.job.units), st.job.fetches, st.produce)
	return st, nil
}

// produce computes one unit's output: lazy deduplicated GOP decode, then
// frame conversion and (for compressed output) re-encode under one pool
// slot; parallelism comes from units racing each other.
func (st *ReadStream) produce(ctx context.Context, i int) error {
	u := st.job.units[i]
	if u.pass != nil {
		u.batch = &ReadBatch{GOP: u.pass}
		return nil
	}
	s, r := st.s, st.job.r
	for _, j := range u.jobs {
		if err := j.run(ctx, s); err != nil {
			return err
		}
	}
	if err := s.acquireSlot(ctx); err != nil {
		return err
	}
	defer func() { <-s.workSem }()
	frames := make([]*frame.Frame, 0, len(u.srcs))
	for _, src := range u.srcs {
		if err := context.Cause(ctx); err != nil {
			return err
		}
		if len(src.job.frames) == 0 {
			return fmt.Errorf("core: decoded GOP is empty")
		}
		idx := min(src.idx, len(src.job.frames)-1)
		f, err := convertFrame(src.job.frames[idx], src.p, r)
		if err != nil {
			return err
		}
		frames = append(frames, f)
	}
	u.batch = &ReadBatch{Frames: frames}
	if r.codec.Compressed() {
		start := time.Now()
		data, _, err := codec.EncodeGOP(frames, r.codec, r.quality)
		obs.ObserveCodec(ctx, s.pipe, obs.StageEncode, string(r.codec), time.Since(start))
		if err != nil {
			return err
		}
		u.batch = &ReadBatch{GOP: data}
		if i == st.sampleUnit {
			u.sample = frames
		}
	}
	// Release decoded source frames once the last unit that needs them has
	// been produced, keeping streaming memory bounded.
	for _, j := range u.jobs {
		if j.refs.Add(-1) == 0 {
			j.frames = nil
		}
	}
	return nil
}

// Next returns the next output unit in stream order, io.EOF after the
// last one, or the first error (in stream order) the read hit. After a
// non-EOF error the stream is dead and Next keeps returning that error.
func (st *ReadStream) Next() (*ReadBatch, error) {
	i, err := st.exec.next()
	if err == io.EOF && st.admitCap > 0 && len(st.admitGOPs) > 0 {
		st.admitCap = 0 // admit at most once
		// Admission is an optimization, not part of the read's contract:
		// the stream already delivered its bytes, so failures are dropped.
		st.admitted, _ = st.admit(readOutput{gops: st.admitGOPs}, false)
		st.admitGOPs = nil
	}
	if err != nil {
		return nil, err
	}
	u := st.job.units[i]
	batch := u.batch
	u.batch = nil
	if batch.GOP != nil {
		st.outBytes += int64(len(batch.GOP))
		st.outFrames += u.frames
		if st.admitCap > 0 {
			// Shared with the consumer, never copied: admission writes
			// the GOP out as-is.
			st.admitGOPs = append(st.admitGOPs, batch.GOP)
			if st.outBytes > st.admitCap {
				st.admitCap, st.admitGOPs = 0, nil // outgrew the bound
			}
		}
	}
	return batch, nil
}

// admit is phase C of every read: re-acquire the video, check it is still
// the one phase A planned against, and offer the output for admission as a
// materialized view. The video may have been deleted — or deleted and
// recreated under the same name — while phase B ran; then the output is
// not this video's anymore and nothing is admitted. pressure also runs a
// deferred-compression step under the same lock.
func (st *ReadStream) admit(out readOutput, pressure bool) (bool, error) {
	s, r := st.s, st.job.r
	vs := s.acquire(st.video)
	if vs == nil {
		return false, nil
	}
	defer vs.mu.Unlock()
	if vs != st.vsA {
		return false, nil
	}
	if pixels := int64(r.roiW) * int64(r.roiH) * int64(st.outFrames); pixels > 0 {
		out.mbpp = float64(st.outBytes) * 8 / float64(pixels)
	}
	start := time.Now()
	admitted, err := s.admitLocked(vs, st.job, out)
	obs.Observe(st.exec.ctx, s.pipe, obs.StageCacheAdmit, time.Since(start))
	if err != nil || !pressure {
		return admitted, err
	}
	return admitted, s.deferredPressureLocked(vs)
}

// Close cancels any remaining work. It is safe to call from any goroutine,
// multiple times, and after Next has returned io.EOF (where it is a
// no-op). It never blocks on in-flight decode work.
func (st *ReadStream) Close() error {
	st.exec.cancel(errStreamClosed)
	return nil
}

// Stats reports the read's execution statistics. Plan fields are valid
// immediately; GOPsDecoded and BytesRead grow as the stream progresses
// (prefetched GOP bytes count once fetched). Admitted becomes true only
// after a compressed stream reached clean EOF and its buffered output was
// cache-admitted; raw streams never admit.
func (st *ReadStream) Stats() ReadStats {
	stats := st.job.stats
	stats.GOPsDecoded = int(st.job.ctr.decoded.Load())
	stats.BytesRead += st.job.ctr.bytes.Load()
	stats.Admitted = st.admitted
	return stats
}
