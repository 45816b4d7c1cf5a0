// Package obs is the zero-dependency observability core shared by every
// VSS layer: cheap trace/span primitives for following one request
// across processes, per-stage latency histograms for the read/write
// pipeline, a bounded ring of the slowest recent request traces, and a
// Prometheus text renderer for metrics snapshots.
//
// # Trace model
//
// A Trace follows one request. Its identity is a 16-hex-char ID minted
// at the serving edge (vssd, whether a node or a -nodes router) — or
// resumed from the X-VSS-Trace wire header when an upstream already
// minted one — and echoed back in the response, so the same ID names
// the request at the client, the router, and every storage node a read
// touches.
//
// Stage timing is recorded two ways, matching how the pipeline behaves:
//
//   - Observe(stage, d) folds a duration into fixed per-stage atomic
//     accumulators (total nanos + count). Hot paths call it once per GOP
//     with no allocation and no lock, so a trace riding a 1024-stream
//     benchmark costs two atomic adds per observation.
//   - AddSpan records one discrete, labeled event — a router failover
//     hop, a retry — into a small bounded list under a mutex. These are
//     rare by construction; the bound keeps a pathological request from
//     growing its trace without limit.
//
// All Trace methods are nil-receiver safe: code instruments
// unconditionally and un-traced paths (benchmarks, internal reads) pay
// only a nil check. Traces travel on the context via WithTrace /
// FromContext; server.Client injects the ID into outgoing requests, so
// propagation needs no wiring beyond passing ctx.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the wire header carrying a trace ID between processes
// (client → router → storage node). Requests may send it to resume an
// upstream trace; responses echo the ID that was used.
const TraceHeader = "X-VSS-Trace"

// Stage identifies one timed stage of the read/write pipeline. The set
// is fixed and small so a Trace can hold one atomic accumulator per
// stage with no map or allocation.
type Stage uint8

const (
	// StageAdmission is time queued in the serving admission controller
	// before the read acquired an execution slot.
	StageAdmission Stage = iota
	// StagePlan is phase A of a read: resolve, plan, and snapshot under
	// the video lock (eager snapshot IO included when prefetch is off).
	StagePlan
	// StageFetch is a stored-GOP backend read — local disk, or the full
	// remote round trip including retries and router failover.
	StageFetch
	// StageDecode is GOP bitstream decode on the worker pool.
	StageDecode
	// StageEncode is output GOP encode (read transcode or ingest).
	StageEncode
	// StageCacheAdmit is phase C: re-locked cache admission of a read's
	// output as a materialized view.
	StageCacheAdmit
	// StageFlush is response write/flush cycles pushing bytes to the
	// client socket.
	StageFlush

	numStages
)

var stageNames = [numStages]string{
	"admission_wait",
	"plan",
	"fetch",
	"decode",
	"encode",
	"cache_admit",
	"flush",
}

// String returns the stage's snake_case name, as used in /metrics keys
// and trace snapshots.
func (st Stage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return "unknown"
}

// StageNames lists every stage name in canonical order.
func StageNames() []string {
	out := make([]string, numStages)
	copy(out, stageNames[:])
	return out
}

// NewID mints a random 64-bit trace ID as 16 hex characters.
func NewID() string {
	var b [8]byte
	rand.Read(b[:]) // never fails per crypto/rand contract
	return hex.EncodeToString(b[:])
}

// maxSpans bounds a trace's discrete span list. Spans mark rare events
// (failover hops, retries); a request generating more than this is
// recorded truncated, with SpansDropped counting the overflow.
const maxSpans = 64

// stageAcc accumulates one stage's observations.
type stageAcc struct {
	nanos atomic.Int64
	count atomic.Int64
}

// Trace accumulates one request's timing. Create with StartTrace;
// methods are safe for concurrent use and on a nil receiver.
type Trace struct {
	id    string
	name  string // request kind: "read", "write", "gop_read"
	start time.Time

	stages [numStages]stageAcc

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// StartTrace begins a trace for one request. A non-empty id resumes a
// propagated upstream trace (the wire header's value); empty mints a
// fresh ID. name labels the request kind in snapshots and logs.
func StartTrace(id, name string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{id: id, name: name, start: time.Now()}
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns when the trace began.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Observe folds one stage duration into the trace's accumulators.
// No-op on a nil trace; two atomic adds otherwise.
func (t *Trace) Observe(st Stage, d time.Duration) {
	if t == nil || st >= numStages {
		return
	}
	if d < 0 {
		d = 0
	}
	t.stages[st].nanos.Add(int64(d))
	t.stages[st].count.Add(1)
}

// AddSpan records one discrete labeled event, e.g. a failover hop. The
// offset is taken from the span's own start time against the trace
// start. No-op on a nil trace; bounded by maxSpans.
func (t *Trace) AddSpan(st Stage, label string, start time.Time, d time.Duration, err error) {
	if t == nil {
		return
	}
	sp := Span{
		Stage:          st.String(),
		Label:          label,
		OffsetMillis:   millis(start.Sub(t.start)),
		DurationMillis: millis(d),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Request carries the request-level outcome fields a serving layer
// knows when the request finishes.
type Request struct {
	Video  string
	Detail string // request detail: read query, GOP address
	Status int
	Bytes  int64
	TTFB   time.Duration
}

// Snapshot freezes the trace into its serializable form, with end as
// the request's finish time. A nil trace snapshots to the zero value.
func (t *Trace) Snapshot(req Request, end time.Time) TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	snap := TraceSnapshot{
		ID:             t.id,
		Name:           t.name,
		Video:          req.Video,
		Detail:         req.Detail,
		Status:         req.Status,
		Bytes:          req.Bytes,
		Start:          t.start,
		DurationMillis: millis(end.Sub(t.start)),
		TTFBMillis:     millis(req.TTFB),
	}
	for i := range t.stages {
		if n := t.stages[i].count.Load(); n > 0 {
			if snap.Stages == nil {
				snap.Stages = make(map[string]StageTiming, numStages)
			}
			snap.Stages[Stage(i).String()] = StageTiming{
				Count:  n,
				Millis: float64(t.stages[i].nanos.Load()) / 1e6,
			}
		}
	}
	t.mu.Lock()
	if len(t.spans) > 0 {
		snap.Spans = append([]Span(nil), t.spans...)
	}
	snap.SpansDropped = t.dropped
	t.mu.Unlock()
	return snap
}

func millis(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return float64(d) / 1e6
}

// ctxKey keys the trace on a context.
type ctxKey struct{}

// WithTrace attaches a trace to a context. Attaching nil returns ctx
// unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil — safe to call
// methods on either way.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// TraceID returns the context's trace ID, or "".
func TraceID(ctx context.Context) string { return FromContext(ctx).ID() }
