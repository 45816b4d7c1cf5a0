package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/vss"
)

// TestQueryWireParity pins the predicate read's HTTP surface to the
// in-process API: the same matches, in order, with byte-identical frame
// payloads, arrive through server.Client as System.ReadWhere returns
// locally — so the router and remote-storage layers, which only see the
// wire, inherit predicate reads unchanged.
func TestQueryWireParity(t *testing.T) {
	ctx := context.Background()
	sys, c := newTestServer(t, vss.Options{}, Config{})

	const n, w, h, fps = 48, 48, 32, 8
	frames := testFootage(n, w, h, fps)
	if err := sys.Create("cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write("cam", vss.WriteSpec{FPS: fps, Codec: vss.H264}, frames); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		pred   string
		t0, t1 float64
	}{
		{"count >= 1", 0, 0},
		{"motion > 0.05 and count >= 1", 0, 0},
		{"count >= 1", 1.5, 4.5},
		{"count = 0 or motion > 10", 0, 0},
	} {
		pred, err := vss.ParsePredicate(tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.ReadWhere(ctx, "cam", pred, tc.t0, tc.t1)
		if err != nil {
			t.Fatal(err)
		}
		hdr, got, err := c.Query(ctx, "cam", tc.pred, tc.t0, tc.t1)
		if err != nil {
			t.Fatalf("Query(%q): %v", tc.pred, err)
		}
		if hdr.Width != w || hdr.Height != h || hdr.FPS != fps {
			t.Errorf("%q: header geometry %dx%d@%d", tc.pred, hdr.Width, hdr.Height, hdr.FPS)
		}
		if hdr.Codec != "raw" || hdr.Format != vss.RGB || hdr.FrameBytes != w*h*3 {
			t.Errorf("%q: header codec=%q format=%v frameBytes=%d", tc.pred, hdr.Codec, hdr.Format, hdr.FrameBytes)
		}
		if len(got) != len(want.Matches) {
			t.Fatalf("%q: wire returned %d matches, local %d", tc.pred, len(got), len(want.Matches))
		}
		for i, m := range got {
			if m.Index != want.Matches[i].Index {
				t.Fatalf("%q: match %d index %d, want %d", tc.pred, i, m.Index, want.Matches[i].Index)
			}
			if !bytes.Equal(m.Data, want.Matches[i].Frame.Data) {
				t.Errorf("%q: match %d payload differs from local read", tc.pred, i)
			}
		}
	}
}

// TestQueryParamValidation pins the request-surface rules: where= rejects
// every transcode/resample parameter, malformed predicates and bounds,
// and unknown videos, each with the right status.
func TestQueryParamValidation(t *testing.T) {
	sys, c := newTestServer(t, vss.Options{}, Config{})
	if err := sys.Create("cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write("cam", vss.WriteSpec{FPS: 8, Codec: vss.H264}, testFootage(16, 48, 32, 8)); err != nil {
		t.Fatal(err)
	}

	get := func(name, query string) int {
		t.Helper()
		resp, err := c.HTTP.Get(c.Base + "/videos/" + url.PathEscape(name) + "/read?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	base := url.Values{"where": {"count >= 1"}}.Encode()
	for _, bad := range predicateExclusiveParams {
		if code := get("cam", base+"&"+bad+"=1"); code != http.StatusBadRequest {
			t.Errorf("where combined with %s=: status %d, want 400", bad, code)
		}
	}
	for query, want := range map[string]int{
		url.Values{"where": {"speed > 2"}}.Encode():                                http.StatusBadRequest,
		url.Values{"where": {"count >= 1"}, "start": {"x"}}.Encode():               http.StatusBadRequest,
		url.Values{"where": {"count >= 1"}, "end": {"nan"}}.Encode():               http.StatusBadRequest,
		url.Values{"where": {"count >= 1"}, "start": {"5"}, "end": {"1"}}.Encode(): http.StatusBadRequest,
	} {
		if code := get("cam", query); code != want {
			t.Errorf("query %q: status %d, want %d", query, code, want)
		}
	}
	if code := get("nosuch", base); code != http.StatusNotFound {
		t.Errorf("unknown video: status %d, want 404", code)
	}

	// The canonical predicate is echoed back for observability.
	resp, err := c.HTTP.Get(c.Base + "/videos/cam/read?" + url.Values{"where": {"count>=1 and motion>0"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-VSS-Predicate"); got != "count >= 1 and motion > 0" {
		t.Errorf("X-VSS-Predicate %q", got)
	}
}

// TestQueryMetrics verifies predicate reads surface in the /metrics
// predicate section: query counts, planner skip counters, scan
// selectivity, and — for a repeated query — analyses reused from the
// store's memo all move.
func TestQueryMetrics(t *testing.T) {
	ctx := context.Background()
	sys, c := newTestServer(t, vss.Options{}, Config{})
	if err := sys.Create("cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write("cam", vss.WriteSpec{FPS: 8, Codec: vss.H264}, testFootage(64, 48, 32, 8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(ctx, "cam", "count >= 1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(ctx, "cam", "motion > 1000", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(ctx, "cam", "count >= 1", 0, 0); err != nil {
		t.Fatal(err)
	}

	// The handler folds a query's counters in after it has written the
	// response terminator, so the client can be back here first: wait for
	// every completion to land before reading the rest.
	var snap MetricsSnapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := c.HTTP.Get(c.Base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Predicate.Completed >= 3 || time.Now().After(deadline) {
			break
		}
	}
	p := snap.Predicate
	if p.Queries != 3 || p.Completed != 3 {
		t.Errorf("queries %d/%d completed, want 3/3", p.Queries, p.Completed)
	}
	if p.GOPsConsidered != 24 { // 8 candidate GOPs per query
		t.Errorf("gops_considered %d, want 24", p.GOPsConsidered)
	}
	// motion > 1000 is refuted by every summary: all its GOPs skip.
	if p.GOPsSkipped < 8 {
		t.Errorf("gops_skipped %d, want >= 8", p.GOPsSkipped)
	}
	if p.GOPsDecoded+p.GOPsSkipped != p.GOPsConsidered {
		t.Errorf("decoded %d + skipped %d != considered %d", p.GOPsDecoded, p.GOPsSkipped, p.GOPsConsidered)
	}
	if p.FramesScanned == 0 || p.SkipRate <= 0 {
		t.Errorf("frames_scanned %d, skip_rate %g", p.FramesScanned, p.SkipRate)
	}
	// The repeat decodes what the first query decoded, and reuses all
	// of its analyses.
	if p.GOPsDecoded == 0 || p.AnalysisReused*2 != p.GOPsDecoded {
		t.Errorf("analysis_reused %d of %d decoded GOPs, want half", p.AnalysisReused, p.GOPsDecoded)
	}

	// The Prometheus exposition carries the same section.
	resp2, err := c.HTTP.Get(c.Base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"vss_predicate_queries", "vss_predicate_gops_skipped", "vss_predicate_analysis_reused", "vss_background_maintain_passes"} {
		if !bytes.Contains(buf.Bytes(), []byte(metric)) {
			t.Errorf("prometheus exposition missing %s", metric)
		}
	}
}
