package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/storage"
)

// errWriterClosed poisons a Writer after Close so later calls fail fast.
var errWriterClosed = errors.New("core: writer closed")

// Writer is a streaming write handle. Frames appended to it accumulate
// into GOPs; each completed GOP is persisted and immediately visible to
// readers, so applications may query prefixes of video still being written
// (Section 2: "writes to VSS are non-blocking and users may query prefixes
// of ingested video data").
//
// Ingest is pipelined: Append hands completed GOPs to a pool of
// Options.Workers encode workers and returns; encoded GOPs are committed
// to the store strictly in append order by a sequenced commit goroutine,
// so a reader always observes a durable prefix of the appended frames,
// exactly as with serial ingest. Because encoding is asynchronous, an encode or commit
// failure may surface on a later Append, or on Flush/Close, which drain
// the pipeline and report the first (lowest-sequence) error; once failed,
// the writer is poisoned and every later call returns that same error.
//
// The writer borrows appended frames: it has always held partial-GOP
// frames in its buffer across calls, and with pipelining it also reads
// complete GOPs asynchronously while they encode. Callers must not mutate
// a frame after passing it to Append until Flush or Close returns —
// recycling a capture buffer earlier races the encode workers and stores
// torn pixels without any error. Allocate (or Clone) a fresh frame per
// Append instead.
//
// A Writer is NOT safe for concurrent use by multiple goroutines; open
// one Writer per producer. Distinct Writers — even on the same video —
// may run concurrently: the video lock serializes their GOP commits.
// Frame buffering and GOP encoding happen outside the video lock, so a
// streaming writer does not block readers of the same video while it
// compresses.
type Writer struct {
	s     *Store
	video string
	spec  WriteSpec
	phys  *PhysMeta
	buf   []*frame.Frame
	gopN  int // frames per GOP for this writer
	err   error
	pipe  *ingestPipe // nil until the first GOP needs encoding
}

// Write stores frames as (or appended to) the video's original physical
// representation, blocking until all GOPs are durable. It is shorthand for
// OpenWriter + Append + Close.
func (s *Store) Write(video string, spec WriteSpec, frames []*frame.Frame) error {
	w, err := s.OpenWriter(video, spec)
	if err != nil {
		return err
	}
	if err := w.Append(frames...); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// writeEncodedChunk is the number of GOPs WriteEncoded commits per video
// lock acquisition: large enough to amortize locking and catalog updates,
// small enough that a bulk ingest cannot starve concurrent readers of the
// same video.
const writeEncodedChunk = 8

// WriteEncoded ingests already-compressed GOPs as-is (the paper: "VSS
// accepts as-is ingested compressed GOP sizes"). Each element must be a
// valid encoded GOP with a consistent configuration; the whole batch is
// validated before anything is written. Safe for concurrent use. The batch
// commits in bounded chunks, releasing the video lock between chunks so
// readers (and other writers, whose GOPs may interleave at chunk
// granularity) are not starved during a bulk ingest; readers therefore
// observe the batch growing prefix by prefix rather than all at once.
func (s *Store) WriteEncoded(video string, fps int, gops [][]byte) error {
	if len(gops) == 0 {
		return fmt.Errorf("core: no GOPs to write")
	}
	// Validate every GOP up front, outside any lock: DecodeHeader is cheap
	// and failing after a partial commit would leave a half-ingested batch.
	hd0, err := codec.DecodeHeader(gops[0])
	if err != nil {
		return err
	}
	batch := make([]encodedGOP, len(gops))
	for i, gop := range gops {
		hd, err := codec.DecodeHeader(gop)
		if err != nil {
			return err
		}
		if hd.Codec != hd0.Codec || hd.Width != hd0.Width || hd.Height != hd0.Height {
			return fmt.Errorf("core: inconsistent GOP configuration in encoded write")
		}
		batch[i] = encodedGOP{data: gop, frames: hd.FrameCount}
	}
	vs := s.acquire(video)
	if vs == nil {
		return ErrNotFound
	}
	p, err := s.ensureOriginalLocked(vs, WriteSpec{FPS: fps, Codec: hd0.Codec, Quality: hd0.Quality}, hd0.Width, hd0.Height, hd0.PixFmt)
	vs.mu.Unlock()
	if err != nil {
		return err
	}
	for start := 0; start < len(batch); start += writeEncodedChunk {
		end := start + writeEncodedChunk
		if end > len(batch) {
			end = len(batch)
		}
		if err := s.commitGOPs(video, p, batch[start:end]); err != nil {
			return err
		}
	}
	vs = s.acquire(video)
	if vs == nil {
		return ErrNotFound
	}
	defer vs.mu.Unlock()
	if vs.byID(p.ID) != p {
		return ErrNotFound
	}
	return s.finishWriteLocked(vs, p)
}

// OpenWriter starts a streaming write. The first writer on a video
// establishes its original physical representation m0; later writers
// append to it (the prototype adopts the paper's no-overwrite policy, so
// the configuration must match).
func (s *Store) OpenWriter(video string, spec WriteSpec) (*Writer, error) {
	if spec.FPS <= 0 {
		return nil, fmt.Errorf("core: write requires a positive fps")
	}
	if spec.Codec == "" {
		spec.Codec = codec.Raw
	}
	if !spec.Codec.Valid() {
		return nil, fmt.Errorf("core: unknown codec %q", spec.Codec)
	}
	spec.Quality = effectiveQuality(spec.Quality)
	if s.lookup(video) == nil {
		return nil, ErrNotFound
	}
	return &Writer{s: s, video: video, spec: spec}, nil
}

// ensureOriginalLocked finds or creates the original physical video m0.
// Caller holds the video's lock.
func (s *Store) ensureOriginalLocked(vs *videoState, spec WriteSpec, w, h int, pixfmt frame.PixelFormat) (*PhysMeta, error) {
	v := vs.meta
	if p := vs.original(); p != nil {
		if p.Codec != spec.Codec || p.Width != w || p.Height != h || p.FPS != spec.FPS {
			return nil, fmt.Errorf("core: video %s already written as %dx%dr%d.%s; writes must append in the same configuration (no-overwrite policy)",
				v.Name, p.Width, p.Height, p.FPS, p.Codec)
		}
		return p, nil
	}
	id := s.allocPhys(v)
	p := &PhysMeta{
		ID:      id,
		Dir:     storage.PhysicalDirName(id, w, h, spec.FPS, string(spec.Codec)),
		Width:   w,
		Height:  h,
		FPS:     spec.FPS,
		Codec:   spec.Codec,
		PixFmt:  pixfmt,
		Quality: spec.Quality,
		ROI:     FullNRect(),
		Orig:    true,
	}
	v.Original = id
	v.FPS = spec.FPS
	v.Width = w
	v.Height = h
	vs.phys[id] = p
	if err := s.saveVideo(v); err != nil {
		return nil, err
	}
	return p, s.savePhys(v.Name, p)
}

// encodedGOP is one encoded GOP awaiting commit.
type encodedGOP struct {
	data    []byte
	frames  int
	summary *GOPSummary // feature summary for predicate planning; may be nil
}

// encodeForIngest encodes one GOP and computes its feature summary from
// the encoder's reconstructed frames — the exact pixels a predicate read
// will decode (codec.EncodeGOPRecon captures them from the closed
// prediction loop, so no decode-back pass is paid). A nil reconstruction leaves the GOP summaryless and predicate
// reads decode it conservatively. CPU-heavy; callers run it under a
// workSem slot.
//
// Uncompressed (raw) ingest skips inline summarization: raw writes are
// the high-rate capture path — storing bytes at memory speed, thousands
// of fps — and per-frame content analysis would dominate them, exactly
// the work-at-ingest the deferred machinery exists to avoid. Raw GOPs
// stay summaryless (predicate reads decode them, still correct) until
// the next Maintain pass backfills their summaries. Compressed ingest
// summarizes inline, where analysis amortizes against encode cost and
// the reconstruction is free.
func encodeForIngest(s *Store, enc *codec.Encoder, spec WriteSpec, frames []*frame.Frame) ([]byte, *GOPSummary, error) {
	start := time.Now()
	if !spec.Codec.Compressed() {
		data, _, err := enc.EncodeGOP(frames, spec.Codec, spec.Quality)
		s.pipe.ObserveCodec(obs.StageEncode, string(spec.Codec), time.Since(start))
		return data, nil, err
	}
	data, recon, _, err := enc.EncodeGOPRecon(frames, spec.Codec, spec.Quality)
	s.pipe.ObserveCodec(obs.StageEncode, string(spec.Codec), time.Since(start))
	if err != nil || recon == nil {
		return data, nil, err
	}
	return data, summarizeFrames(recon), nil
}

// appendGOPBatchLocked persists a batch of encoded GOPs in order and
// registers them with a single catalog update, amortizing the per-GOP
// bookkeeping the serial write path paid. Every GOP file is durable before
// the catalog row that references it is written, so a crash mid-batch
// leaves at most orphaned files, never metadata for missing data — the
// same guarantee the one-at-a-time path gave. Caller holds the video's
// lock.
func (s *Store) appendGOPBatchLocked(vs *videoState, p *PhysMeta, batch []encodedGOP) error {
	v := vs.meta
	appended := 0
	for _, g := range batch {
		seq := len(p.GOPs)
		start := 0
		if seq > 0 {
			last := p.GOPs[seq-1]
			start = last.StartFrame + last.Frames
		}
		if err := s.files.WriteGOP(v.Name, p.Dir, seq, g.data); err != nil {
			if appended > 0 {
				// Keep the catalog consistent with the GOPs whose files did
				// land before reporting the failure.
				if serr := s.savePhys(v.Name, p); serr != nil {
					return errors.Join(err, serr)
				}
			}
			return err
		}
		p.GOPs = append(p.GOPs, GOPMeta{
			Seq:        seq,
			StartFrame: start,
			Frames:     g.frames,
			Bytes:      int64(len(g.data)),
			LRU:        s.tick(v),
			Summary:    g.summary,
		})
		appended++
	}
	return s.savePhys(v.Name, p)
}

// commitGOPs appends a batch of encoded GOPs to a physical video under one
// video lock acquisition, rechecking that the physical view still exists
// (the video may have been deleted — and possibly recreated — since the
// caller last held the lock).
func (s *Store) commitGOPs(video string, p *PhysMeta, batch []encodedGOP) error {
	if len(batch) == 0 {
		return nil
	}
	vs := s.acquire(video)
	if vs == nil {
		return ErrNotFound
	}
	defer vs.mu.Unlock()
	if vs.byID(p.ID) != p {
		return ErrNotFound
	}
	return s.appendGOPBatchLocked(vs, p, batch)
}

// finishWriteLocked settles bookkeeping after a write burst: duration,
// default budget, eviction, and deferred compression pressure. Caller
// holds the video's lock.
func (s *Store) finishWriteLocked(vs *videoState, p *PhysMeta) error {
	v := vs.meta
	if end := p.End(); p.Orig && end > v.Duration {
		v.Duration = end
	}
	if v.Budget == 0 && p.Orig && s.opts.BudgetMultiple > 0 {
		v.Budget = int64(float64(p.Bytes()) * s.opts.BudgetMultiple)
	}
	if err := s.saveVideo(v); err != nil {
		return err
	}
	if err := s.evictLocked(vs); err != nil {
		return err
	}
	return s.deferredPressureLocked(vs)
}

// Append buffers frames, dispatching complete GOPs to the encode pipeline.
func (w *Writer) Append(frames ...*frame.Frame) error {
	if w.err != nil {
		return w.err
	}
	if err := w.pipelineErr(); err != nil {
		w.err = err
		return err
	}
	for _, f := range frames {
		if err := w.append(f); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

func (w *Writer) append(f *frame.Frame) error {
	if w.phys == nil {
		vs := w.s.acquire(w.video)
		if vs == nil {
			return ErrNotFound
		}
		pixfmt := f.Format
		if w.spec.Codec.Compressed() {
			pixfmt = frame.YUV420
		}
		p, err := w.s.ensureOriginalLocked(vs, w.spec, f.Width, f.Height, pixfmt)
		vs.mu.Unlock()
		if err != nil {
			return err
		}
		w.phys = p
		w.gopN = w.gopFrames(f)
	}
	if f.Width != w.phys.Width || f.Height != w.phys.Height {
		return fmt.Errorf("core: frame %dx%d does not match video %dx%d", f.Width, f.Height, w.phys.Width, w.phys.Height)
	}
	w.buf = append(w.buf, f)
	if len(w.buf) >= w.gopN {
		return w.dispatchGOP()
	}
	return nil
}

// gopFrames picks the GOP length: the configured frame count for
// compressed video, or a byte-bounded block for raw (paper: blocks of at
// most 25MB, or a single frame beyond that).
func (w *Writer) gopFrames(f *frame.Frame) int {
	if w.spec.Codec.Compressed() {
		return w.s.opts.GOPFrames
	}
	return rawGOPFrames(w.s.rawBlockBytes, f.Format, f.Width, f.Height, w.s.opts.GOPFrames)
}

// dispatchGOP hands the buffered frames — a complete GOP, or Flush's
// trailing partial one — to the encode pipeline, starting it on first
// use. Blocks only when the pipeline is full.
func (w *Writer) dispatchGOP() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.pipe == nil {
		w.pipe = newIngestPipe(w.s, w.video, w.phys, w.spec)
	}
	frames := w.buf
	w.buf = nil // the pipeline owns this slice now
	return w.pipe.submit(frames)
}

// pipelineErr reports the pipeline's first error, if any, without waiting.
func (w *Writer) pipelineErr() error {
	if w.pipe == nil {
		return nil
	}
	return w.pipe.firstErr()
}

// Flush persists any buffered partial GOP through the pipeline and
// drains it: when Flush returns nil, every frame appended so far is
// durable and visible to readers.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.phys == nil {
		return nil
	}
	err := w.dispatchGOP()
	if err == nil {
		err = w.drain()
	}
	if err != nil {
		w.err = err
		return err
	}
	vs := w.s.acquire(w.video)
	if vs == nil {
		w.err = ErrNotFound
		return w.err
	}
	defer vs.mu.Unlock()
	if vs.byID(w.phys.ID) != w.phys {
		w.err = ErrNotFound
		return w.err
	}
	return w.s.finishWriteLocked(vs, w.phys)
}

// drain waits for every in-flight GOP to commit (or fail) and surfaces the
// pipeline's first error.
func (w *Writer) drain() error {
	if w.pipe == nil {
		return nil
	}
	w.pipe.drain()
	return w.pipe.firstErr()
}

// Close drains the pipeline, flushes any partial GOP, shuts the pipeline
// down, and poisons the writer. If the writer already failed — a poisoned
// Append, or an asynchronous encode/commit error — Close does NOT attempt
// another flush of the dead buffer: it releases the pipeline's goroutines
// and returns the stored error. Per the paper's prototype, writes are only
// guaranteed visible once the writer is closed; in this implementation
// every whole GOP is already visible earlier.
func (w *Writer) Close() error {
	err := w.err
	if err == nil {
		err = w.Flush()
	}
	if w.pipe != nil {
		w.pipe.shutdown()
		w.pipe = nil
	}
	if err != nil {
		w.err = err
		return err
	}
	w.err = errWriterClosed
	return nil
}

// ingestPipe is the pipelined ingest engine behind a Writer: a bounded
// pool of encode workers fed complete GOPs in sequence order, and a single
// committer goroutine that restores that order before committing, so the
// store only ever contains a prefix of the appended GOPs.
//
//	Append → jobs → [encode workers × Options.Workers] → done → committer
//
// Workers encode concurrently and finish out of order; the committer holds
// early arrivals until their predecessors commit. In-flight GOPs are
// bounded by the sem tokens (2*Options.Workers, so roughly that many
// uncompressed GOPs of memory): Append acquires one per submitted GOP and
// the committer releases it after the GOP commits (or is discarded past
// an error), which backpressures Append instead of letting ingest buffer
// unboundedly. The first error in sequence order poisons the
// pipe; later GOPs are discarded, never committed, preserving the durable-
// prefix invariant even across failures.
type ingestPipe struct {
	s     *Store
	video string
	phys  *PhysMeta
	spec  WriteSpec

	jobs     chan ingestJob
	done     chan ingestResult
	sem      chan struct{}  // in-flight GOP tokens
	inflight sync.WaitGroup // submitted-but-uncommitted GOPs (drain)
	workers  sync.WaitGroup // encode workers (shutdown)
	commit   chan struct{}  // closed when the committer exits
	nextSeq  int            // next sequence number Append will assign

	mu  sync.Mutex
	err error // first (lowest-sequence) encode/commit error
}

type ingestJob struct {
	seq    int
	frames []*frame.Frame
}

type ingestResult struct {
	seq int
	gop encodedGOP
	err error
}

func newIngestPipe(s *Store, video string, phys *PhysMeta, spec WriteSpec) *ingestPipe {
	inflight := 2 * s.opts.Workers
	p := &ingestPipe{
		s:      s,
		video:  video,
		phys:   phys,
		spec:   spec,
		jobs:   make(chan ingestJob, inflight),
		done:   make(chan ingestResult, inflight),
		sem:    make(chan struct{}, inflight),
		commit: make(chan struct{}),
	}
	for i := 0; i < s.opts.Workers; i++ {
		p.workers.Add(1)
		go p.encodeWorker()
	}
	go func() { // close the result stream once every worker has exited
		p.workers.Wait()
		close(p.done)
	}()
	go p.committer()
	return p
}

// submit hands one GOP to the pipeline, blocking while the in-flight
// tokens are exhausted. The error returned is the pipeline's current
// first error (submission itself cannot fail).
func (p *ingestPipe) submit(frames []*frame.Frame) error {
	p.sem <- struct{}{}
	p.inflight.Add(1)
	p.jobs <- ingestJob{seq: p.nextSeq, frames: frames}
	p.nextSeq++
	return p.firstErr()
}

// encodeWorker encodes GOPs with per-worker reusable scratch. The CPU work
// holds one slot of the store-wide worker semaphore, so writer fan-out and
// reader fan-out together never exceed Options.Workers.
func (p *ingestPipe) encodeWorker() {
	defer p.workers.Done()
	enc := codec.NewEncoder()
	for job := range p.jobs {
		p.s.workSem <- struct{}{}
		data, sum, err := encodeForIngest(p.s, enc, p.spec, job.frames)
		<-p.s.workSem
		p.done <- ingestResult{
			seq: job.seq,
			gop: encodedGOP{data: data, frames: len(job.frames), summary: sum},
			err: err,
		}
	}
}

// committer restores sequence order and commits ready runs of GOPs in
// batches, one video lock acquisition per run. It is the only goroutine
// that commits for this writer, which is what makes the in-order guarantee
// and the first-error semantics deterministic.
func (p *ingestPipe) committer() {
	defer close(p.commit)
	pending := make(map[int]ingestResult)
	next := 0 // next sequence number to commit
	var batch []encodedGOP
	for res := range p.done {
		pending[res.seq] = res
		// Gather the ready run [next, ...) — including results that arrived
		// while a previous batch was committing — and commit it in one
		// batch under a single video lock acquisition.
		batch = batch[:0]
		disposed := 0 // GOPs leaving the pipeline this iteration
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if r.err != nil {
				p.fail(r.err) // first in sequence order wins
			}
			if p.firstErr() != nil {
				disposed++ // poisoned: discard instead of committing
				continue
			}
			batch = append(batch, r.gop)
		}
		if len(batch) > 0 {
			if err := p.s.commitGOPs(p.video, p.phys, batch); err != nil {
				p.fail(err)
			}
			disposed += len(batch)
		}
		// Whether committed or discarded, each disposed GOP frees one
		// in-flight token (unblocking Append) and one drain count.
		for i := 0; i < disposed; i++ {
			<-p.sem
			p.inflight.Done()
		}
	}
}

// fail records the pipeline's first error.
func (p *ingestPipe) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// firstErr returns the pipeline's first error, if any.
func (p *ingestPipe) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// drain blocks until every submitted GOP has committed or been discarded.
func (p *ingestPipe) drain() { p.inflight.Wait() }

// shutdown stops the pipeline's goroutines. Pending GOPs are still
// processed (workers drain the job channel before exiting); callers that
// need them durable call drain first.
func (p *ingestPipe) shutdown() {
	close(p.jobs)
	<-p.commit
}
