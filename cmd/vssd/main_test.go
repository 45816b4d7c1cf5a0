package main

// Smoke tests for the vssd binary, each over real HTTP against built
// binaries. TestVssdSmoke exercises one daemon's full serving surface —
// create, GOP write, streaming reads (compressed and raw), metrics,
// maintain, delete — then shuts it down with SIGTERM. TestVssdClusterSmoke
// boots a 3-node fleet behind a vssd -nodes router at replicas=2, kills
// one node mid-service (SIGKILL — a crash, not a shutdown), verifies
// reads stay byte-identical through failover, restarts the node, and
// watches the write-repair journal drain through /metrics. CI runs them
// as the serving and cluster smoke jobs.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/visualroad"
)

// buildVssd builds the daemon under test into a temp directory.
func buildVssd(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := t.TempDir() + "/vssd"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches bin with args, waits for its readiness line
// ("vssd: serving ... on ADDR"; everything after the final " on " is the
// resolved address), and returns the address plus a function that sends
// the process a signal and returns its exit status. A daemon still
// running at cleanup gets SIGTERM.
func startDaemon(t *testing.T, bin string, args ...string) (addr string, signal func(syscall.Signal) error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	signal = func(sig syscall.Signal) error {
		stopped = true
		cmd.Process.Signal(sig)
		select {
		case err := <-exited:
			return err
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			return fmt.Errorf("%s did not exit after signal %v", bin, sig)
		}
	}
	t.Cleanup(func() {
		if !stopped {
			if err := signal(syscall.SIGTERM); err != nil {
				t.Error(err)
			}
		}
	})

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		// Warnings (e.g. the router probing a not-yet-up fleet) precede
		// the readiness line; keep scanning.
		line := sc.Text()
		if i := strings.LastIndex(line, " on "); i >= 0 && strings.HasPrefix(line, "vssd: serving ") {
			addr = line[i+len(" on "):]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no readiness line from %s: %v", bin, sc.Err())
	}
	go func() { // keep the pipe drained
		for sc.Scan() {
		}
	}()
	return addr, signal
}

func TestVssdSmoke(t *testing.T) {
	addr, signal := startDaemon(t, buildVssd(t), "-store", t.TempDir(), "-addr", "127.0.0.1:0", "-cache-mb", "16")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &server.Client{Base: "http://" + addr}

	const fps = 8
	frames := visualroad.Generate(visualroad.Config{Width: 48, Height: 32, FPS: fps, Seed: 9}, 4*fps)
	var gops [][]byte
	for i := 0; i < len(frames); i += 8 {
		data, _, err := codec.EncodeGOP(frames[i:i+8], codec.H264, 85)
		if err != nil {
			t.Fatal(err)
		}
		gops = append(gops, data)
	}

	if err := c.Create(ctx, "cam", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteGOPs(ctx, "cam", fps, gops); err != nil {
		t.Fatal(err)
	}
	stat, err := c.Stat(ctx, "cam")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Duration != 4 {
		t.Fatalf("stat.Duration = %v, want 4", stat.Duration)
	}

	// Same-format same-quality compressed read: the stored GOPs come back
	// as-is (mixed execution's no-decode passthrough path).
	hdr, got, err := c.ReadAll(ctx, "cam", "codec=h264&quality=85")
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Codec != "h264" || len(got) != len(gops) {
		t.Fatalf("read: codec=%s gops=%d, want h264/%d", hdr.Codec, len(got), len(gops))
	}
	// Raw read of a slice.
	hdr, chunks, err := c.ReadAll(ctx, "cam", "start=0&end=2&format=rgb")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ch := range chunks {
		n += len(ch) / hdr.FrameBytes
	}
	if n != 2*fps {
		t.Fatalf("raw read returned %d frames, want %d", n, 2*fps)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reads.Completed < 2 || m.Writes.GOPsWritten != int64(len(gops)) {
		t.Fatalf("metrics = %+v", m)
	}
	if err := c.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "cam"); err != nil {
		t.Fatal(err)
	}

	// Clean shutdown on SIGTERM.
	if err := signal(syscall.SIGTERM); err != nil {
		t.Fatalf("vssd exit: %v", err)
	}
}

func TestVssdClusterSmoke(t *testing.T) {
	vssd := buildVssd(t)

	// Three storage nodes; node 0's store directory outlives its first
	// process so a restart serves the same surviving data.
	stores := make([]string, 3)
	addrs := make([]string, 3)
	kills := make([]func(syscall.Signal) error, 3)
	for i := range stores {
		stores[i] = t.TempDir()
		addrs[i], kills[i] = startDaemon(t, vssd, "-store", stores[i], "-addr", "127.0.0.1:0")
	}
	nodeList := fmt.Sprintf("http://%s,http://%s,http://%s", addrs[0], addrs[1], addrs[2])

	// The router: response cache off so every read exercises the fleet,
	// no maintenance loop — this smoke proves the store's background
	// journal drain alone re-replicates, with no scrub to hide behind.
	routerAddr, _ := startDaemon(t, vssd,
		"-store", t.TempDir(), "-addr", "127.0.0.1:0", "-nodes", nodeList,
		"-replicas", "2", "-cache-mb", "0", "-maintain", "0")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c := &server.Client{Base: "http://" + routerAddr}

	const fps = 8
	ingest := func(name string, seed int64) {
		t.Helper()
		frames := visualroad.Generate(visualroad.Config{Width: 48, Height: 32, FPS: fps, Seed: seed}, 4*fps)
		var gops [][]byte
		for i := 0; i < len(frames); i += 8 {
			data, _, err := codec.EncodeGOP(frames[i:i+8], codec.H264, 85)
			if err != nil {
				t.Fatal(err)
			}
			gops = append(gops, data)
		}
		if err := c.Create(ctx, name, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteGOPs(ctx, name, fps, gops); err != nil {
			t.Fatal(err)
		}
	}
	readBytes := func(name string) []byte {
		t.Helper()
		hdr, gops, err := c.ReadAll(ctx, name, "codec=h264&quality=85")
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if hdr.Codec != "h264" || len(gops) == 0 {
			t.Fatalf("read %s: codec=%s gops=%d", name, hdr.Codec, len(gops))
		}
		return bytes.Join(gops, nil)
	}

	ingest("cam", 9)
	healthy := readBytes("cam")

	// Crash node 0 and keep serving: reads fail over, and a write issued
	// during the outage journals its missed replica copies.
	kills[0](syscall.SIGKILL)
	ingest("cam2", 11)
	if got := readBytes("cam"); !bytes.Equal(got, healthy) {
		t.Fatal("failover read of cam is not byte-identical to healthy")
	}
	outage := readBytes("cam2")

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cluster == nil || m.Cluster.Nodes != 3 || m.Cluster.Replicas != 2 {
		t.Fatalf("metrics cluster section = %+v", m.Cluster)
	}
	if m.Cluster.JournalDepth == 0 {
		t.Fatal("outage writes journaled nothing")
	}

	// Observability drill, while node 0 is still down: a traced read
	// must land in the router's /debug/traces under the ID the client
	// sent, with the failover hop recorded as its own span — and the
	// Prometheus exposition must parse and carry the pipeline section.
	const traceID = "cafef00dcafef00d"
	trCtx := obs.WithTrace(ctx, obs.StartTrace(traceID, "smoke"))
	for _, name := range []string{"cam", "cam2"} {
		if _, _, err := c.ReadAll(trCtx, name, "codec=h264&quality=85"); err != nil {
			t.Fatalf("traced read %s: %v", name, err)
		}
	}
	dump, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sawTrace, sawFailover := false, false
	for _, tr := range dump.Traces {
		if tr.ID != traceID {
			continue
		}
		sawTrace = true
		for _, sp := range tr.Spans {
			if strings.HasPrefix(sp.Label, "failover to ") {
				sawFailover = true
			}
		}
	}
	if !sawTrace {
		t.Fatalf("trace %s not in /debug/traces (%d retained)", traceID, len(dump.Traces))
	}
	if !sawFailover {
		t.Fatal("no failover span on the traced degraded reads")
	}

	promResp, err := http.Get(c.Base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil || promResp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: status %d, %v", promResp.StatusCode, err)
	}
	promRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[^{}]*\})? -?[0-9.eE+-]+$`)
	sawPipeline := false
	for _, line := range strings.Split(strings.TrimRight(string(promBody), "\n"), "\n") {
		if !promRe.MatchString(line) {
			t.Fatalf("unparseable Prometheus line: %q", line)
		}
		if strings.HasPrefix(line, "vss_pipeline_") {
			sawPipeline = true
		}
	}
	if !sawPipeline {
		t.Fatal("Prometheus exposition has no vss_pipeline_ samples")
	}

	// Node 0 returns on the same store and the SAME address (the node
	// list is the cluster's identity); the journal must drain on its own
	// within a few five-second drain ticks.
	addr0, _ := startDaemon(t, vssd, "-store", stores[0], "-addr", addrs[0])
	if addr0 != addrs[0] {
		t.Fatalf("node 0 restarted on %s, want %s", addr0, addrs[0])
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, err = c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		if m.Cluster.JournalDepth == 0 && m.Cluster.Repaired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal did not drain: %+v", m.Cluster)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := readBytes("cam2"); !bytes.Equal(got, outage) {
		t.Fatal("post-repair read of cam2 is not byte-identical")
	}
}
