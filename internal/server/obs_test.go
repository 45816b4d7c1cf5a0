package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/vss"
)

// obsTestServer boots a server with one written video and one served
// read, so every metrics section and pipeline stage has data.
func obsTestServer(t *testing.T) (*vss.System, *Client) {
	t.Helper()
	ctx := context.Background()
	sys, c := newTestServer(t, vss.Options{}, Config{CacheBytes: 1 << 20})
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", 8, encodeGOPs(t, testFootage(16, 48, 32, 8), 8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadAll(ctx, "cam", "codec=h264"); err != nil {
		t.Fatal(err)
	}
	return sys, c
}

// TestTraceEchoAndSlowRing pins the serving edge of the trace model: a
// propagated trace ID is resumed (not re-minted), echoed in the
// response header, and the finished request lands in /debug/traces with
// per-stage timings.
func TestTraceEchoAndSlowRing(t *testing.T) {
	_, c := obsTestServer(t)

	// A context trace makes the client send X-VSS-Trace, exactly like a
	// router forwarding a read would.
	const id = "feedfacecafebeef"
	ctx := obs.WithTrace(context.Background(), obs.StartTrace(id, "client"))
	// A spec the warm-up read did not cache, so this is a live read with
	// plan/fetch/decode stages, not a cache replay.
	resp, err := c.do(ctx, http.MethodGet, "/videos/cam/read?codec=h264&start=0&end=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != id {
		t.Fatalf("trace header echo = %q, want %q (propagated IDs must be resumed)", got, id)
	}

	dump, err := c.Traces(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dump.Capacity != obs.DefaultSlowTraces {
		t.Errorf("capacity = %d, want default %d", dump.Capacity, obs.DefaultSlowTraces)
	}
	var found *obs.TraceSnapshot
	for i := range dump.Traces {
		if dump.Traces[i].ID == id {
			found = &dump.Traces[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("trace %s not in /debug/traces (%d retained)", id, len(dump.Traces))
	}
	if found.Name != "read" || found.Video != "cam" || found.Status != http.StatusOK {
		t.Errorf("trace = name %q video %q status %d, want read/cam/200",
			found.Name, found.Video, found.Status)
	}
	for _, stage := range []string{"plan", "decode", "flush"} {
		if found.Stages[stage].Count == 0 {
			t.Errorf("trace has no %s stage: %v", stage, found.Stages)
		}
	}
	if found.TTFBMillis <= 0 {
		t.Errorf("trace TTFB = %v, want > 0", found.TTFBMillis)
	}
}

// TestMetricsPipelineSection asserts the /metrics pipeline section is
// complete and reflects served work.
func TestMetricsPipelineSection(t *testing.T) {
	_, c := obsTestServer(t)
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range obs.StageNames() {
		if _, ok := snap.Pipeline[name]; !ok {
			t.Errorf("pipeline section missing stage %q", name)
		}
	}
	for _, name := range []string{"plan", "fetch", "decode", "flush"} {
		st := snap.Pipeline[name]
		if st.Count == 0 {
			t.Errorf("pipeline stage %q count = 0 after a served read", name)
		}
		if st.P99Millis < st.P50Millis {
			t.Errorf("stage %q p99 %.3f < p50 %.3f", name, st.P99Millis, st.P50Millis)
		}
	}
}

// promLine validates one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[^{}]*\})? -?[0-9.eE+-]+$`)

// TestPrometheusCoversSnapshot is the exposition-completeness gate:
// every leaf field of the JSON /metrics snapshot must surface as a
// Prometheus sample, and every emitted line must parse as the text
// format. The expected-name set is derived by an independent re-walk of
// the marshaled snapshot, so a walker regression that silently drops a
// section fails here.
func TestPrometheusCoversSnapshot(t *testing.T) {
	_, c := obsTestServer(t)
	ctx := context.Background()

	fetch := func(path, accept string) (*http.Response, string) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	_, jsonBody := fetch("/metrics", "")
	resp, promBody := fetch("/metrics?format=prometheus", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content type = %q", ct)
	}
	// Accept-header negotiation selects the same exposition.
	_, negotiated := fetch("/metrics", "application/openmetrics-text, text/plain;prometheus=1")
	if !strings.HasPrefix(negotiated, "vss_") {
		t.Errorf("Accept negotiation did not select Prometheus output: %q", negotiated[:min(len(negotiated), 60)])
	}

	// Every line parses as a sample.
	samples := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(promBody, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		samples[name] = true
	}

	// Independent re-walk of the snapshot document: collect the sample
	// name every leaf must have produced.
	var doc any
	if err := json.Unmarshal([]byte(jsonBody), &doc); err != nil {
		t.Fatal(err)
	}
	// Local name-mangling mirrors of the walker's rules, reimplemented
	// here so the test does not trivially agree with the code under test.
	joinSeg := func(base, seg string) string {
		if base == "" {
			return seg
		}
		return base + "_" + seg
	}
	sanitize := func(s string) string {
		out := []byte(s)
		for i, c := range out {
			if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
				continue
			}
			out[i] = '_'
		}
		if len(out) == 0 || out[0] >= '0' && out[0] <= '9' {
			out = append([]byte{'_'}, out...)
		}
		return string(out)
	}
	expected := map[string]bool{}
	var collect func(name, rel string, v any, labeled bool)
	collect = func(name, rel string, v any, labeled bool) {
		switch val := v.(type) {
		case map[string]any:
			if _, ok := promOpts.Labels[rel]; ok && !labeled {
				for _, sub := range val {
					collect(name, rel, sub, true)
				}
				return
			}
			for k, sub := range val {
				collect(joinSeg(name, sanitize(k)), joinSeg(rel, k), sub, false)
			}
		case []any:
			for _, el := range val {
				collect(name, rel, el, true)
			}
		case string:
			expected[name+"_info"] = true
		case bool, float64:
			expected[name] = true
		}
	}
	collect("vss", "", doc, false)

	if len(expected) == 0 {
		t.Fatal("snapshot walk produced no expected samples")
	}
	for name := range expected {
		if !samples[name] {
			t.Errorf("JSON snapshot field has no Prometheus sample: %s", name)
		}
	}
	// Spot-check the section the tentpole added.
	for _, want := range []string{"vss_pipeline_decode_p99_ms", "vss_pipeline_fetch_count"} {
		if !samples[want] {
			t.Errorf("missing expected pipeline sample %s", want)
		}
	}
}

// lockedBuffer is a bytes.Buffer safe for the handler goroutines that
// log into it while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.FieldsFunc(b.buf.String(), func(r rune) bool { return r == '\n' })
}

// TestRequestLog pins Config.RequestLog (vssd -log-requests): each
// finished read logs exactly one line on the default slog logger, whose
// trace field matches the response's X-VSS-Trace header and whose status
// is the one the client saw. It swaps the process-wide default logger,
// so it must not run in parallel with other tests.
func TestRequestLog(t *testing.T) {
	var out lockedBuffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&out, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	ctx := context.Background()
	_, c := newTestServer(t, vss.Options{}, Config{RequestLog: true})
	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", 8, encodeGOPs(t, testFootage(16, 48, 32, 8), 8)); err != nil {
		t.Fatal(err)
	}

	type logLine struct {
		Msg    string `json:"msg"`
		Trace  string `json:"trace"`
		Video  string `json:"video"`
		Status int    `json:"status"`
	}
	for i, tc := range []struct {
		video  string
		status int
	}{{"cam", http.StatusOK}, {"missing", http.StatusNotFound}} {
		resp, err := c.do(ctx, http.MethodGet, "/videos/"+tc.video+"/read?codec=h264", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.video, resp.StatusCode, tc.status)
		}
		// The handler logs after the last byte leaves, so the line may
		// trail the response by a moment.
		var lines []string
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if lines = out.lines(); len(lines) > i || time.Now().After(deadline) {
				break
			}
		}
		if len(lines) != i+1 {
			t.Fatalf("after %d reads the log holds %d lines: %q", i+1, len(lines), lines)
		}
		var got logLine
		if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
			t.Fatalf("log line %q: %v", lines[i], err)
		}
		want := logLine{Msg: "read", Trace: resp.Header.Get(obs.TraceHeader), Video: tc.video, Status: tc.status}
		if want.Trace == "" || got != want {
			t.Errorf("log line %+v, want %+v", got, want)
		}
	}
}
