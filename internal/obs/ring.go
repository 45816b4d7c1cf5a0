package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one discrete labeled event inside a trace — a router failover
// hop, a retry — with its offset from the trace start.
type Span struct {
	Stage          string  `json:"stage"`
	Label          string  `json:"label,omitempty"`
	OffsetMillis   float64 `json:"offset_ms"`
	DurationMillis float64 `json:"duration_ms"`
	Err            string  `json:"err,omitempty"`
}

// StageTiming is one stage's accumulated time within a single trace.
type StageTiming struct {
	Count  int64   `json:"count"`
	Millis float64 `json:"ms"`
}

// TraceSnapshot is a finished trace in serializable form: the JSON
// element of /debug/traces.
type TraceSnapshot struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Video  string `json:"video,omitempty"`
	Detail string `json:"detail,omitempty"`
	Status int    `json:"status,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`

	Start          time.Time `json:"start"`
	DurationMillis float64   `json:"duration_ms"`
	TTFBMillis     float64   `json:"ttfb_ms,omitempty"`

	// Stages maps stage name → accumulated time; only observed stages
	// appear. Spans are the discrete events (failover hops); a request
	// generating more than the per-trace bound reports SpansDropped.
	Stages       map[string]StageTiming `json:"stages,omitempty"`
	Spans        []Span                 `json:"spans,omitempty"`
	SpansDropped int                    `json:"spans_dropped,omitempty"`
}

// StageSummary renders the observed stages in canonical order as
// "plan=0.4ms fetch=12.1ms decode=80.0ms" — the compact per-request log
// form.
func (s TraceSnapshot) StageSummary() string {
	if len(s.Stages) == 0 {
		return ""
	}
	var b []byte
	for i := Stage(0); i < numStages; i++ {
		st, ok := s.Stages[i.String()]
		if !ok {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, i.String()...)
		b = append(b, '=')
		b = appendMillis(b, st.Millis)
	}
	return string(b)
}

// appendMillis formats ms with two decimals without pulling fmt into
// the hot logging path.
func appendMillis(b []byte, ms float64) []byte {
	if ms < 0 {
		ms = 0
	}
	cent := int64(ms*100 + 0.5)
	b = appendInt(b, cent/100)
	b = append(b, '.')
	frac := cent % 100
	b = append(b, byte('0'+frac/10), byte('0'+frac%10))
	return append(b, "ms"...)
}

func appendInt(b []byte, v int64) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// SlowRing retains the N slowest recent request traces for
// /debug/traces. Add is called on every finished request, so the common
// case — a request faster than everything retained — must be cheap: one
// atomic load rejects it without taking the lock. Only requests slow
// enough to displace the current minimum pay the mutex and the O(N)
// eviction scan (N is small, default 64).
type SlowRing struct {
	capN    int
	mu      sync.Mutex
	entries []TraceSnapshot
	// floor is the admission threshold in microseconds: the retained
	// minimum once the ring is full, -1 (admit everything) before.
	floor atomic.Int64
}

// DefaultSlowTraces is the ring capacity the serving layer uses.
const DefaultSlowTraces = 64

// NewSlowRing builds a ring retaining the n slowest traces (n <= 0
// selects DefaultSlowTraces).
func NewSlowRing(n int) *SlowRing {
	if n <= 0 {
		n = DefaultSlowTraces
	}
	r := &SlowRing{capN: n}
	r.floor.Store(-1)
	return r
}

// Cap returns the ring's capacity.
func (r *SlowRing) Cap() int {
	if r == nil {
		return 0
	}
	return r.capN
}

// Add offers one finished trace. Traces no slower than the retained
// minimum of a full ring are rejected on the atomic fast path. The
// floor read is deliberately racy — a borderline trace may slip past a
// concurrent eviction and be re-judged under the lock; the ring is a
// diagnostic aid, not an exact order statistic. Nil-receiver safe.
func (r *SlowRing) Add(s TraceSnapshot) {
	if r == nil {
		return
	}
	us := int64(s.DurationMillis * 1000)
	if us <= r.floor.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) < r.capN {
		r.entries = append(r.entries, s)
		if len(r.entries) == r.capN {
			r.updateFloor()
		}
		return
	}
	min := 0
	for i := 1; i < len(r.entries); i++ {
		if r.entries[i].DurationMillis < r.entries[min].DurationMillis {
			min = i
		}
	}
	if s.DurationMillis > r.entries[min].DurationMillis {
		r.entries[min] = s
	}
	r.updateFloor()
}

// updateFloor recomputes the admission threshold. Caller holds mu.
func (r *SlowRing) updateFloor() {
	min := r.entries[0].DurationMillis
	for _, e := range r.entries[1:] {
		if e.DurationMillis < min {
			min = e.DurationMillis
		}
	}
	r.floor.Store(int64(min * 1000))
}

// Snapshot returns the retained traces, slowest first.
func (r *SlowRing) Snapshot() []TraceSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]TraceSnapshot(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DurationMillis > out[j].DurationMillis })
	return out
}
