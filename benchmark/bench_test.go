package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, seconds: 0.3, rounds: 1, trace: trace, sz: smokeSizes, workdir: t.TempDir(), clients: 2}
}

// TestSmoke runs every workload at a few percent of its size, untraced and
// traced, and checks that what it prints is exactly what BENCHMARK.json
// names. Self-assertions are logged, not enforced: a workload this small
// does not stress what the full one does.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				r, err := runWorkload(name, smokeConfig(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics printed, %d specified", trace, len(r.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s not printed", trace, m.Name)
					}
					if v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace=%v: %s = %v %q, want a finite number in %q", trace, m.Name, v.Value, v.Unit, m.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must never be 0", m.Name, v.Value)
					}
				}
				if r.Attempted < 1 {
					t.Errorf("trace=%v: nothing attempted", trace)
				}
				for _, f := range r.failures {
					t.Logf("trace=%v: %s", trace, f)
				}
				if trace {
					var sum float64
					for _, v := range r.spans.SelfFrac {
						sum += v
					}
					if math.Abs(sum-1) > 0.05 {
						t.Errorf("per-layer self fractions sum to %.3f, want 1 within 5%%", sum)
					}
				}
			}
		})
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json equal to the tables in
// spec.go and inside the limits of the driver's schema.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var disk struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(onDisk, &disk); err != nil {
		t.Fatal(err)
	}
	generated, err := benchmarkJSON(disk.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(generated, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run . -print-spec -seconds <run_seconds>")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the schema", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the schema", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Layer == "" || m.Moves == "" {
			t.Errorf("per-layer metric %+v is outside the schema or not annotated", m)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the schema", len(endToEnd), len(perLayer))
	}
	if disk.RunSeconds < 1 || disk.RunSeconds > 60 {
		t.Errorf("run_seconds %d", disk.RunSeconds)
	}
}

// TestSameSeedSameSchedule: inputs are a function of the seed alone.
func TestSameSeedSameSchedule(t *testing.T) {
	for _, name := range workloadNames() {
		hash := func(seed int64) string {
			w := newWorkload(name)
			defer w.close()
			cfg := smokeConfig(t, false)
			cfg.seed = seed
			if err := w.prepare(cfg); err != nil {
				t.Fatal(err)
			}
			return w.scheduleHash()
		}
		if a, b := hash(3), hash(3); a != b {
			t.Errorf("%s: seed 3 gave schedules %s and %s", name, a, b)
		}
		if a, b := hash(3), hash(4); a == b {
			t.Errorf("%s: seeds 3 and 4 gave the same schedule %s", name, a)
		}
	}
}

// recordingBackend notes which read variant reached it.
type recordingBackend struct {
	*storage.Mem
	calls []string
}

func (r *recordingBackend) ReadGOPContext(ctx context.Context, video, physDir string, seq int) ([]byte, error) {
	r.calls = append(r.calls, "ctx")
	return r.Mem.ReadGOP(video, physDir, seq)
}

func (r *recordingBackend) ReadGOPExpect(video, physDir string, seq int, want int64) ([]byte, error) {
	r.calls = append(r.calls, "expect")
	return r.Mem.ReadGOP(video, physDir, seq)
}

// TestTracedBackend: the wrapper the harness hands the program keeps the
// Backend contract, traced or not, and hides none of the optional read
// capabilities storage.Instrumented looks for.
func TestTracedBackend(t *testing.T) {
	for _, traced := range []bool{false, true} {
		b := newTracedBackend(storage.NewMem(), layerStorage, 0)
		if traced {
			b.attach(newTracer())
		}
		storagetest.Conformance(t, b)
		c := newTracedBackend(storage.NewMem(), layerStorage, 0)
		if traced {
			c.attach(newTracer())
		}
		storagetest.ConcurrentWriteSameGOP(t, c)
	}

	var _ storage.ContextReader = (*tracedBackend)(nil)
	var _ storage.ExpectReader = (*tracedBackend)(nil)
	var _ storage.ContextExpectReader = (*tracedBackend)(nil)

	inner := &recordingBackend{Mem: storage.NewMem()}
	b := newTracedBackend(inner, layerStorage, 0)
	if b.Unwrap() != storage.Backend(inner) {
		t.Error("Unwrap does not return the wrapped backend")
	}
	if err := b.WriteGOP("v", "p", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := b.ReadGOPContext(ctx, "v", "p", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadGOPExpect("v", "p", 0, 1); err != nil {
		t.Fatal(err)
	}
	if want := []string{"ctx", "expect"}; !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner backend saw %v, want %v: a capability was not forwarded", inner.calls, want)
	}

	// With a tracer, a read under an op's request id becomes that op's child.
	tr := newTracer()
	b.attach(tr)
	lane := newLane(tr, 0)
	if _, err := lane.call("Read", func(ctx context.Context) error {
		_, err := b.ReadGOPContext(ctx, "v", "p", 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	lane.sp.end()
	var op, child span
	for _, s := range tr.snapshot() {
		switch s.Layer {
		case layerOp:
			op = s
		case layerStorage:
			child = s
		}
	}
	if op.ID == 0 || child.Parent != op.ID || child.Req != op.Req {
		t.Errorf("storage span %+v is not a child of op %+v", child, op)
	}
	if rd, _ := b.samples(); len(rd) != 1 {
		t.Errorf("%d read samples, want 1", len(rd))
	}
}

// TestAttribute: every instant of every lane is counted once.
func TestAttribute(t *testing.T) {
	spans := []span{
		{ID: 2, Layer: layerLane, Lane: 0, Start: 0, End: 100},
		{ID: 3, Parent: 2, Layer: layerOp, Lane: 0, Start: 10, End: 60},
		{ID: 4, Parent: 3, Layer: layerRouter, Start: 20, End: 50},
		{ID: 5, Parent: 3, Layer: layerStorage, Start: 30, End: 40},
		{ID: 6, Parent: 3, Layer: layerStorage, Start: 35, End: 45}, // overlaps 5: covered once
		{ID: 7, Parent: 1, Layer: layerStorage, Start: 55, End: 70}, // no request id: matched by time, clipped to the op
		{ID: 8, Parent: 1, Layer: layerStorage, Start: 80, End: 90}, // outside every op
		{ID: 9, Parent: 2, Layer: layerOp, Lane: 0, Start: 95, End: 100},
	}
	got := attribute(spans)
	want := attribution{LaneNs: 100, HarnessNs: 45, OpSelfNs: 15 + 5, RouterNs: 15, StorageNs: 15 + 5, LooseNs: 10 + 10}
	if got != want {
		t.Errorf("attribute = %+v, want %+v", got, want)
	}
	if sum := got.HarnessNs + got.OpSelfNs + got.RouterNs + got.StorageNs; sum != got.LaneNs {
		t.Errorf("parts sum to %d, lane time is %d", sum, got.LaneNs)
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if s := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", s)
	}
}
