package backendcli

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/router"
)

// TestOpenRejectsConflicts: flag combinations that could mean two
// different backends error instead of silently picking one.
func TestOpenRejectsConflicts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		kind       string
		shards     int
		replicas   int
		shardRoots string
		nodes      string
		want       string
	}{
		{name: "nodes+shards", shards: 2, nodes: "http://a", want: "-nodes conflicts with -shards"},
		{name: "nodes+shard-roots", shardRoots: "/a,/b", nodes: "http://a", want: "-nodes conflicts with -shards"},
		{name: "nodes+backend", kind: "mem", nodes: "http://a", want: "-nodes conflicts with -backend mem"},
		{name: "replicas unsharded", replicas: 2, want: "-replicas 2 needs a sharded backend"},
		{name: "localfs+shards", kind: "localfs", shards: 2, want: "-backend localfs conflicts"},
		{name: "mem+shards", kind: "mem", shards: 2, want: "-backend mem conflicts"},
		{name: "unknown backend", kind: "tape", want: `unknown -backend "tape"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Open("prog", t.TempDir(), tc.kind, tc.shards, tc.replicas, tc.shardRoots, tc.nodes, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, %v; want error containing %q", b, err, tc.want)
			}
		})
	}
}

// TestOpenProbesFleet: a -nodes fleet with an unreachable node still
// opens (a rolling restart must not block startup) but warns, naming
// the program and the node.
func TestOpenProbesFleet(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	var warn strings.Builder
	b, err := Open("prog", t.TempDir(), "", 0, 1, "", dead.URL+",", &warn)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := b.(*router.Cluster); !ok || c.Members() != 1 {
		t.Fatalf("backend = %T %v, want a 1-node cluster", b, b)
	}
	if got := warn.String(); !strings.HasPrefix(got, "prog: WARNING") || !strings.Contains(got, dead.URL) {
		t.Fatalf("warning = %q, want one tagged prog naming %s", got, dead.URL)
	}
}
