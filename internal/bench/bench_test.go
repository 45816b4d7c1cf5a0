package bench

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestExperimentRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation, in paper order,
	// and nothing else.
	want := []string{
		"table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "table2", "fig17", "fig18", "fig19", "fig20", "fig21",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, name := range want {
		if exps[i].Name != name {
			t.Errorf("experiment %d is %s, want %s", i, exps[i].Name, name)
		}
		if exps[i].Title == "" || exps[i].Run == nil {
			t.Errorf("experiment %s incomplete", name)
		}
	}
}

func TestByName(t *testing.T) {
	if e, ok := ByName("fig10"); !ok || e.Name != "fig10" {
		t.Error("fig10 lookup failed")
	}
	if _, ok := ByName("fig99"); ok {
		t.Error("unknown experiment resolved")
	}
}

// TestFastExperimentsProduceRows smoke-runs the sub-second experiments end
// to end; the heavyweight ones run through cmd/vssbench.
func TestFastExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests in -short mode")
	}
	for _, name := range []string{"fig13", "fig17", "fig19", "fig20"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		if !strings.Contains(out, "===") {
			t.Errorf("%s: missing header in output", name)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) < 4 {
			t.Errorf("%s: too few output rows:\n%s", name, out)
		}
	}
}

func TestRandomReadSpecWithinBounds(t *testing.T) {
	rng := newTestRand()
	for i := 0; i < 200; i++ {
		spec := randomReadSpec(rng, 24)
		if spec.T.Start < 0 || spec.T.End > 24 || spec.T.End <= spec.T.Start {
			t.Fatalf("spec interval [%f, %f) out of bounds", spec.T.Start, spec.T.End)
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
