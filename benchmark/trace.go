package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Layers a span can belong to. The harness only sees the program from
// outside, so a span is either one of its own calls into a layer (an "op"),
// or a storage call observed by the backend wrapper it handed the program.
const (
	layerLane    = "lane"    // one generator goroutine / connection, for the whole measured phase
	layerOp      = "op"      // harness call into vss/core/server (Read, Flush, StreamingRead, ...)
	layerRouter  = "router"  // wrapper around router.Cluster
	layerStorage = "storage" // wrapper around a leaf backend (localfs, a node's mem)
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch. Parent is 0 for a root. Req ties the spans of one request
// together: it is the obs trace ID the harness put on the request's context,
// which server.Client forwards on the wire, so it reaches the backend wrapper
// of every node the request touches.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Lane   int    `json:"lane"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how an untraced run pays only a nil check.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	root  int64

	mu    sync.Mutex
	spans []span
	open  map[string]int64 // request id -> op span currently serving it
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), open: make(map[string]int64)}
	t.root = t.next.Add(1)
	return t
}

// liveSpan is a span that has begun and not yet ended.
type liveSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name, layer string, lane int, parent int64, req string) *liveSpan {
	if t == nil {
		return nil
	}
	if parent == 0 {
		parent = t.root
	}
	ls := &liveSpan{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Name: name, Layer: layer, Lane: lane, Req: req,
		Start: int64(time.Since(t.epoch)),
	}}
	if layer == layerOp && req != "" {
		t.mu.Lock()
		t.open[req] = ls.s.ID
		t.mu.Unlock()
	}
	return ls
}

func (ls *liveSpan) id() int64 {
	if ls == nil {
		return 0
	}
	return ls.s.ID
}

func (ls *liveSpan) end() {
	if ls == nil {
		return
	}
	ls.s.End = int64(time.Since(ls.t.epoch))
	ls.t.mu.Lock()
	ls.t.spans = append(ls.t.spans, ls.s)
	if ls.s.Layer == layerOp && ls.s.Req != "" && ls.t.open[ls.s.Req] == ls.s.ID {
		delete(ls.t.open, ls.s.Req)
	}
	ls.t.mu.Unlock()
}

// parentFor resolves the op span a storage call belongs to from the request
// id on its context; calls without one (every write: the Backend write
// methods take no context) hang off the root and are matched to an op by
// time in attribute.
func (t *tracer) parentFor(req string) int64 {
	if t == nil || req == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[req]
}

// opCtx returns a context carrying a fresh request id, and that id. The id
// is an obs trace: it costs the program nothing it does not already do for
// any traced request, and it is the only thing that crosses the wire.
func (t *tracer) opCtx(ctx context.Context) (context.Context, string) {
	if t == nil {
		return ctx, ""
	}
	id := "b" + strconv.FormatInt(t.next.Add(1), 16)
	return obs.WithTrace(ctx, obs.StartTrace(id, "bench")), id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// attribution splits the lanes' time (one lane per generator goroutine, so
// the total is lanes x wall) into the time spent outside any op, inside ops
// but not in storage, and inside router and leaf-storage calls. Every
// instant of every lane is counted exactly once, so the parts sum to the
// total.
type attribution struct {
	LaneNs    int64 // sum of lane durations
	HarnessNs int64 // lane time outside ops: schedule waits, bookkeeping
	OpSelfNs  int64 // op time not covered by a storage or router span
	RouterNs  int64 // router span time not covered by a leaf-storage span
	StorageNs int64 // leaf-storage span time inside ops
	LooseNs   int64 // storage/router time that fell outside every op (async commits)
}

type ival struct {
	a, b  int64
	layer string
}

// attribute computes the split. A storage or router span belongs to an op
// when it carries the op's request id, or — for spans with no id — when it
// overlaps an op in time; it is clipped to that op. Within an op, leaf
// storage wins over router, and both win over the op itself.
func attribute(spans []span) attribution {
	var out attribution
	var ops, kids []span
	for _, s := range spans {
		switch s.Layer {
		case layerLane:
			out.LaneNs += s.End - s.Start
		case layerOp:
			ops = append(ops, s)
		case layerRouter, layerStorage:
			kids = append(kids, s)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	opByID := make(map[int64]int, len(ops))
	var opNs int64
	for i, o := range ops {
		opByID[o.ID] = i
		opNs += o.End - o.Start
	}
	out.HarnessNs = out.LaneNs - opNs

	perOp := make([][]ival, len(ops))
	for _, k := range kids {
		i, linked := opByID[k.Parent]
		if !linked {
			// No request id: give it to the first op that contains its
			// start. Which lane gets it does not change any layer total.
			// Ops overlap only across lanes, so a bounded look back over
			// the ops that started before it finds any that contains it.
			i = -1
			last := sort.Search(len(ops), func(j int) bool { return ops[j].Start > k.Start }) - 1
			for j := last; j >= 0 && j > last-256; j-- {
				if ops[j].End > k.Start {
					i = j
					break
				}
			}
		}
		if i < 0 {
			out.LooseNs += k.End - k.Start
			continue
		}
		a, b := max(k.Start, ops[i].Start), min(k.End, ops[i].End)
		if b > a {
			perOp[i] = append(perOp[i], ival{a, b, k.Layer})
		}
		out.LooseNs += (k.End - k.Start) - max(b-a, 0)
	}
	for i, o := range ops {
		st, rt := cover(perOp[i])
		out.StorageNs += st
		out.RouterNs += rt
		out.OpSelfNs += (o.End - o.Start) - st - rt
	}
	return out
}

// cover returns the time covered by leaf-storage intervals, and the time
// covered by router intervals but by no leaf-storage interval.
func cover(ivs []ival) (storageNs, routerNs int64) {
	if len(ivs) == 0 {
		return 0, 0
	}
	type edge struct {
		at    int64
		delta int
		layer string
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.a, 1, iv.layer}, edge{iv.b, -1, iv.layer})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var nStorage, nRouter int
	prev := edges[0].at
	for _, e := range edges {
		if d := e.at - prev; d > 0 {
			switch {
			case nStorage > 0:
				storageNs += d
			case nRouter > 0:
				routerNs += d
			}
		}
		prev = e.at
		if e.layer == layerStorage {
			nStorage += e.delta
		} else {
			nRouter += e.delta
		}
	}
	return storageNs, routerNs
}

// spansFile is what -spans writes: the raw spans of the traced round of one
// workload, and the split computed from them.
type spansFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	WallNs      int64              `json:"wall_ns"`
	Lanes       int                `json:"lanes"`
	Attribution attribution        `json:"attribution"`
	SelfFrac    map[string]float64 `json:"self_frac"`
	Spans       []span             `json:"spans"`
}

func writeSpans(path string, files []spansFile) error {
	data, err := json.Marshal(files)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
