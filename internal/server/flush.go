package server

import (
	"encoding/binary"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Response-path tuning. The serving loop used to copy every batch into a
// fresh payload buffer and Flush() per GOP; small-GOP streams spent more
// time in the HTTP plumbing than on their own bytes. The chunkWriter
// below coalesces small chunks into one pooled buffer and flushes on a
// byte/latency threshold, while large payloads skip the copy entirely.
const (
	// flushThreshold is the buffered-byte level that forces a flush; one
	// socket write then carries many coalesced GOPs.
	flushThreshold = 128 << 10
	// flushInterval bounds how stale a buffered chunk may get before a
	// flush, so a slow producer still delivers frames at bounded latency
	// even when the byte threshold is never reached.
	flushInterval = 25 * time.Millisecond
	// bypassThreshold is the payload size at which copying into the
	// coalescing buffer stops paying for itself: the buffered bytes (plus
	// this chunk's header) are flushed and the payload goes to the wire
	// directly from the caller's buffer — zero-copy passthrough for
	// already-encoded GOPs and raw frame batches.
	bypassThreshold = 64 << 10
	// chunkBufCap sizes pooled buffers: the flush threshold plus room for
	// one maximal coalesced chunk and its header, so an append never
	// regrows a pooled buffer.
	chunkBufCap = flushThreshold + bypassThreshold + chunkHeaderLen
)

// bufPool recycles chunkWriters (and, through them, their coalescing
// buffers) across requests. It is per-Server rather than package-level so
// concurrent test servers do not share hit-rate accounting.
type bufPool struct {
	pool   sync.Pool
	hits   atomic.Int64
	misses atomic.Int64
}

// get returns a chunkWriter ready for reset. Steady-state serving hits
// the pool; a miss allocates the one buffer the request will use.
func (p *bufPool) get() *chunkWriter {
	if v := p.pool.Get(); v != nil {
		p.hits.Add(1)
		return v.(*chunkWriter)
	}
	p.misses.Add(1)
	return &chunkWriter{buf: make([]byte, 0, chunkBufCap)}
}

// put recycles a chunkWriter, dropping every per-request reference but
// keeping the buffer's capacity.
func (p *bufPool) put(cw *chunkWriter) {
	buf := cw.buf[:0]
	*cw = chunkWriter{buf: buf}
	p.pool.Put(cw)
}

// chunkWriter frames a response body — a read, a predicate read, a
// cache replay or the storage-plane walk: chunks are coalesced into one
// pooled buffer and flushed adaptively (immediately for the first chunk,
// then on flushThreshold bytes or flushInterval elapsed), while payloads
// of bypassThreshold bytes or more are written straight from the caller's
// buffer. The wire bytes are identical to unbuffered per-chunk writes —
// only the write/flush boundaries move.
type chunkWriter struct {
	w       io.Writer
	flusher http.Flusher
	buf     []byte

	committed bool  // has any byte reached w?
	werr      error // the failed write that ended the response, if any
	lastFlush time.Time
	onFirst   func() // fires when the first byte is committed (TTFB)

	// Per-request stats, folded into server metrics when the request ends.
	bytesOut  int64
	flushes   int64
	coalesced int64 // chunks that stayed buffered past their own write

	// Flush-stage observability, armed by instrument (both may stay nil;
	// bufPool.put's struct reset clears them with everything else).
	pipe *obs.Pipeline
	tr   *obs.Trace
}

// reset arms a pooled chunkWriter for one request. onFirst may be nil.
func (cw *chunkWriter) reset(w io.Writer, flusher http.Flusher, onFirst func()) {
	cw.w = w
	cw.flusher = flusher
	cw.onFirst = onFirst
}

// instrument points the writer at the pipeline's flush-stage histogram
// and the request's trace. Optional — an un-instrumented writer pays
// only nil checks.
func (cw *chunkWriter) instrument(pipe *obs.Pipeline, tr *obs.Trace) {
	cw.pipe = pipe
	cw.tr = tr
}

// observeFlush folds one write/flush cycle's duration into the flush
// stage.
func (cw *chunkWriter) observeFlush(t0 time.Time) {
	if cw.pipe == nil && cw.tr == nil {
		return
	}
	d := time.Since(t0)
	cw.pipe.Observe(obs.StageFlush, d)
	cw.tr.Observe(obs.StageFlush, d)
}

// write sends p to the connection, counting its bytes. The first call
// commits the response (TTFB); a failed write means the client is gone
// and is remembered in werr.
func (cw *chunkWriter) write(p []byte) error {
	n, err := cw.w.Write(p)
	cw.bytesOut += int64(n)
	cw.noteCommit()
	if err != nil {
		cw.werr = err
	}
	return err
}

// flush writes the buffered bytes and pushes them past the HTTP layer.
func (cw *chunkWriter) flush() error {
	t0 := time.Now()
	if len(cw.buf) > 0 {
		err := cw.write(cw.buf)
		cw.buf = cw.buf[:0]
		if err != nil {
			return err
		}
	}
	cw.flushed(t0)
	return nil
}

// flushed pushes written bytes past the HTTP layer and closes one
// write/flush cycle begun at t0.
func (cw *chunkWriter) flushed(t0 time.Time) {
	if cw.flusher != nil {
		cw.flusher.Flush()
	}
	cw.flushes++
	cw.lastFlush = time.Now()
	cw.observeFlush(t0)
}

func (cw *chunkWriter) noteCommit() {
	if !cw.committed {
		cw.committed = true
		if cw.onFirst != nil {
			cw.onFirst()
		}
	}
}

// maybeFlush applies the adaptive policy after a chunk lands in the
// buffer: the first chunk flushes immediately (bounded time-to-first-
// frame), later ones coalesce until the byte or latency threshold.
func (cw *chunkWriter) maybeFlush() error {
	if !cw.committed || len(cw.buf) >= flushThreshold ||
		time.Since(cw.lastFlush) >= flushInterval {
		return cw.flush()
	}
	cw.coalesced++
	return nil
}

// chunk frames one chunk whose payload is prefix followed by parts. A
// payload under bypassThreshold bytes is copied into the buffer and
// coalesces; a larger one goes zero-copy: the pending buffer, the header
// and the prefix go out in one write, then each part straight from its
// owner's buffer.
func (cw *chunkWriter) chunk(prefix []byte, parts ...[]byte) error {
	n := len(prefix)
	for _, p := range parts {
		n += len(p)
	}
	cw.buf = appendChunkHeader(cw.buf, n)
	cw.buf = append(cw.buf, prefix...)
	if n < bypassThreshold {
		for _, p := range parts {
			cw.buf = append(cw.buf, p...)
		}
		return cw.maybeFlush()
	}
	t0 := time.Now()
	err := cw.write(cw.buf)
	cw.buf = cw.buf[:0]
	for i := 0; err == nil && i < len(parts); i++ {
		err = cw.write(parts[i])
	}
	if err != nil {
		return err
	}
	cw.flushed(t0)
	return nil
}

// writeGOP frames one encoded GOP.
func (cw *chunkWriter) writeGOP(gop []byte) error { return cw.chunk(nil, gop) }

// writeFrames frames a batch of raw frames, splitting at whole-frame
// boundaries so no chunk exceeds maxChunkBytes (the caller guarantees a
// single frame fits). Small batches coalesce like GOPs; typical raw
// batches are megabytes and take the zero-copy path.
func (cw *chunkWriter) writeFrames(frames []*frame.Frame) error {
	parts := make([][]byte, 0, len(frames))
	for len(frames) > 0 {
		parts = parts[:0]
		size := 0
		for _, f := range frames {
			if len(parts) > 0 && size+len(f.Data) > maxChunkBytes {
				break
			}
			size += len(f.Data)
			parts = append(parts, f.Data)
		}
		if err := cw.chunk(nil, parts...); err != nil {
			return err
		}
		frames = frames[len(parts):]
	}
	return nil
}

// writeMatch frames one predicate-read match: the chunk payload is a
// 4-byte big-endian source frame index followed by the frame's pixels
// (matchIndexLen extra bytes per chunk vs a plain raw frame).
func (cw *chunkWriter) writeMatch(index uint32, payload []byte) error {
	var idx [matchIndexLen]byte
	return cw.chunk(binary.BigEndian.AppendUint32(idx[:0], index), payload)
}

// matchIndexLen is the per-match frame-index prefix inside a predicate
// read's chunk payload.
const matchIndexLen = 4

// finish appends the clean-EOF terminator and flushes everything left.
func (cw *chunkWriter) finish() error {
	cw.buf = appendChunkHeader(cw.buf, 0)
	return cw.flush()
}

// abort discards buffered-but-unwritten bytes (an error response is still
// possible if nothing was committed).
func (cw *chunkWriter) abort() { cw.buf = cw.buf[:0] }

// The power-of-two latency histogram that used to live here (as
// latencyHist) is now obs.Hist: it grew from the TTFB gauge into the
// shared implementation behind every per-stage pipeline histogram.
