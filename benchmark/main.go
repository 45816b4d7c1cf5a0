// Command benchmark is the repository's performance contract: four seeded
// workloads over the public surfaces of vss, core, server and router, a
// small set of end-to-end metrics every workload reports, and per-layer
// metrics measured from outside the program. See README.md.
//
// The acceptance driver runs it through run.sh as
//
//	--workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. By hand:
//
//	go run . -workload all -seed 1 [-trace 1] [-spans spans.json] [-json out.json]
//	go run . -workload all -sets 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func newWorkload(name string) workload {
	switch name {
	case "ingest_fanin":
		return &ingestFanin{}
	case "read_spill":
		return &readSpill{}
	case "serve_hot":
		return &serveHot{}
	case "cluster_mixed":
		return &clusterMixed{}
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // latency metrics: ops behind the percentile
}

// result is one workload's outcome. The four exported keys of its JSON form
// are the driver's contract; everything else is for the human report.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload string
	hash     string
	failures []string
	spans    *spansFile
}

// runWorkload builds the inputs, runs the rounds and assembles the metrics:
// every end-to-end metric on an untraced run, every per-layer metric on a
// traced one.
func runWorkload(name string, cfg runConfig) (*result, error) {
	w := newWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	defer w.close()
	if err := w.prepare(cfg); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	// Untraced: cfg.rounds rounds (three), so set-up happens that often and
	// setup_s is a median. Traced: one untraced round for the overhead base and the
	// issue-named end-to-end numbers, then one traced round.
	traced := make([]bool, cfg.rounds)
	if cfg.trace {
		traced = []bool{false, true}
	}
	rounds := make([]*roundResult, len(traced))
	var tr *tracer
	for i, t := range traced {
		dir, err := roundDir(cfg.workdir, name, i)
		if err != nil {
			return nil, err
		}
		rc := &roundCtx{dir: dir, idx: i, seconds: cfg.seconds / float64(len(traced))}
		if t {
			tr = newTracer()
			rc.tr = tr
		}
		rr, err := w.round(rc)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", name, i, err)
		}
		rounds[i] = rr
	}

	res := &result{Metrics: map[string]value{}, workload: name, hash: w.scheduleHash()}
	for _, rr := range rounds {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		res.failures = append(res.failures, rr.failures...)
	}
	if cfg.trace {
		layer, sf := layerMetrics(w, cfg, rounds[0], rounds[1], tr)
		for _, m := range perLayer {
			res.Metrics[m.Name] = value{Value: layer[m.Name], Unit: m.Unit}
		}
		sf.Workload, sf.Seed = name, cfg.seed
		res.spans = sf
	} else {
		e2e, n := endToEndMetrics(rounds)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{Value: e2e[m.Name], Unit: m.Unit, Samples: n[m.Name]}
		}
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
		res.failures = append(res.failures, "no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics pools the rounds: latency percentiles over every sample of
// every round, throughput over the summed wall time, set-up time and stored
// ratio as medians of the rounds.
func endToEndMetrics(rounds []*roundResult) (map[string]float64, map[string]int) {
	var op, aux, setup, stored []float64
	var frames, wall float64
	for _, rr := range rounds {
		op = append(op, rr.samples[rr.op]...)
		aux = append(aux, rr.samples[rr.aux]...)
		setup = append(setup, rr.setupS)
		stored = append(stored, rr.storedRatio)
		frames += float64(rr.frames)
		wall += rr.wallS
	}
	return map[string]float64{
			"setup_s":      median(setup),
			"op_p50_ms":    percentile(op, 0.50),
			"op_p95_ms":    percentile(op, 0.95),
			"aux_p50_ms":   percentile(aux, 0.50),
			"frames_per_s": ratio(frames, wall),
			"stored_ratio": median(stored),
		}, map[string]int{
			"op_p50_ms": len(op), "op_p95_ms": len(op), "aux_p50_ms": len(aux),
		}
}

// layerMetrics assembles the per-layer metrics of a traced run: the
// issue-named end-to-end numbers from the untraced round, counters, wrapper
// samples and spans from the traced round, and the leaf probes.
func layerMetrics(w workload, cfg runConfig, plain, traced *roundResult, tr *tracer) (map[string]float64, *spansFile) {
	m := map[string]float64{}
	for k, v := range traced.layer {
		m[k] = v
	}
	for _, key := range []string{"commit", "read", "ttfb", "query"} {
		m[key+"_p50_ms"] = percentile(plain.samples[key], 0.50)
		m[key+"_p95_ms"] = percentile(plain.samples[key], 0.95)
	}
	if plain.fpsName != "" {
		m[plain.fpsName] = ratio(float64(plain.frames), plain.wallS)
	}
	m["fail_frac"] = ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted))

	ops := float64(max(traced.attempted, 1))
	m["proc.cpu_s_per_kop"] = traced.proc.cpuS / ops * 1000
	m["proc.alloc_mb_per_op"] = traced.proc.allocMB / ops
	m["proc.gc_pause_ms_total"] = traced.proc.gcPauseMs
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["bench.sched_lag_ms_p95"] = percentile(traced.lagMs, 0.95)
	m["bench.backlog_end"] = float64(traced.backlogEnd)
	m["bench.samples"] = float64(len(traced.samples[traced.op]))
	if base := percentile(plain.samples[plain.op], 0.5); base > 0 {
		m["bench.trace_overhead_frac"] = percentile(traced.samples[traced.op], 0.5)/base - 1
	}
	m["core.maintain_ms_p50"] = percentile(traced.samples["maintain"], 0.5)
	m["core.maintain_calls"] = float64(len(traced.samples["maintain"]))

	spans := tr.snapshot()
	at := attribute(spans)
	frac := selfFractions(at, traced.stages, traced.overHTTP)
	for k, v := range frac {
		m["trace.self_frac."+k] = v
	}
	runProbes(m, w.probeFrames(), traced.phys, cfg.workdir)
	return m, &spansFile{
		WallNs: int64(traced.wallS * 1e9), Lanes: traced.lanes,
		Attribution: at, SelfFrac: frac, Spans: spans,
	}
}

// selfFractions turns the span split into shares of lane time per layer.
// Storage and router come straight from spans. Op self time — what the
// program spent outside storage — cannot be split further from outside, so
// it is apportioned by the program's own per-stage totals: decode + encode
// to codec, plan + cache admit to core, admission + flush to server. What
// the stages do not account for is the library's own bookkeeping on a
// library workload (core), and client, wire and HTTP on a served one
// (harness).
func selfFractions(at attribution, st stageDelta, overHTTP bool) map[string]float64 {
	total := float64(at.LaneNs)
	if total == 0 {
		return map[string]float64{}
	}
	self := float64(at.OpSelfNs)
	codec := st.ms("decode", "encode") * 1e6
	core := st.ms("plan", "cache_admit") * 1e6
	server := st.ms("admission_wait", "flush") * 1e6
	if staged := codec + core + server; staged > self && staged > 0 {
		scale := self / staged
		codec, core, server = codec*scale, core*scale, server*scale
	}
	rest := self - codec - core - server
	harness := float64(at.HarnessNs)
	if overHTTP {
		harness += rest
	} else {
		core += rest
	}
	return map[string]float64{
		"harness": harness / total,
		"server":  server / total,
		"router":  float64(at.RouterNs) / total,
		"core":    core / total,
		"codec":   codec / total,
		"storage": float64(at.StorageNs) / total,
	}
}

// contractLine prints the one JSON object the driver reads.
func contractLine(out io.Writer, r *result) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for k, v := range r.Metrics {
		line.Metrics[k] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// report prints every metric of one result by name, with its unit, sample
// count and — for a per-layer metric — its layer and what it should move.
func report(out io.Writer, r *result, specs []metricSpec) {
	fmt.Fprintf(out, "== %s  schedule %s  attempted %d  failed %d  correct %v\n",
		r.workload, r.hash, r.Attempted, r.Failed, r.Correct)
	for _, f := range r.failures {
		fmt.Fprintf(out, "   FAIL %s\n", f)
	}
	for _, m := range specs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		note := ""
		if m.Bound > 0 {
			note = fmt.Sprintf("%s is better, bound %.2f", m.Better, m.Bound)
		} else {
			note = fmt.Sprintf("[%s] %s", m.Layer, m.Moves)
		}
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("n=%d", v.Samples)
		}
		fmt.Fprintf(out, "   %-34s %14.4f %-6s %-8s %s\n", m.Name, v.Value, v.Unit, n, note)
	}
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = flag.Int64("seed", 1, "seed every input is derived from")
		seconds      = flag.Float64("seconds", 18, "measured seconds per workload, split over its rounds")
		trace        = flag.Int("trace", 0, "0: untraced run printing the end-to-end metrics; 1: traced run printing the per-layer metrics")
		spansPath    = flag.String("spans", "", "with -trace 1: write the recorded spans to this file")
		jsonPath     = flag.String("json", "", "also write every result to this file")
		sets         = flag.Int("sets", 0, "run the workload list this many times, interleaved, seed+i each, and report spreads against bounds")
		workdir      = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores; each round's directory is removed after it")
		printSpec    = flag.Bool("print-spec", false, "print BENCHMARK.json as generated from the metric tables and exit")
	)
	flag.Parse()
	if *printSpec {
		data, err := benchmarkJSON(int(*seconds))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
		return
	}
	names := workloadNames()
	if *workloadFlag != "all" {
		if newWorkload(*workloadFlag) == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
		names = []string{*workloadFlag}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, rounds: 3, trace: *trace != 0, sz: fullSizes, workdir: *workdir, clients: defaultClients()}

	if *sets > 0 {
		if !runSets(os.Stdout, names, cfg, *sets) {
			os.Exit(1)
		}
		return
	}
	var results []*result
	var spans []spansFile
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, name := range names {
		r, err := runWorkload(name, cfg)
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, r, specs)
		results = append(results, r)
		if r.spans != nil {
			spans = append(spans, *r.spans)
		}
	}
	if *spansPath != "" && cfg.trace {
		if err := writeSpans(*spansPath, spans); err != nil {
			fatal(err)
		}
	}
	if *jsonPath != "" {
		byName := map[string]*result{}
		for _, r := range results {
			byName[r.workload] = r
		}
		data, err := json.MarshalIndent(byName, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The driver runs one workload at a time and reads the last line.
	if len(results) == 1 {
		if err := contractLine(os.Stdout, results[0]); err != nil {
			fatal(err)
		}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// runSets runs the workload list n times interleaved (w1..w4, w1..w4, ...),
// set i with seed+i as the driver does, and prints for every end-to-end
// metric its median, quartiles and relative spread against its bound. It
// reports false when a spread exceeds its bound (setup_s excepted, as in the
// driver's rule) or a run was incorrect.
func runSets(out io.Writer, names []string, cfg runConfig, n int) bool {
	vals := map[string]map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		c := cfg
		c.seed, c.trace = cfg.seed+int64(i), false
		for _, name := range names {
			r, err := runWorkload(name, c)
			if err != nil {
				fatal(err)
			}
			if !r.Correct {
				ok = false
				report(out, r, endToEnd)
			}
			if vals[name] == nil {
				vals[name] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				vals[name][k] = append(vals[name][k], v.Value)
			}
			fmt.Fprintf(out, "set %d %s seed %d done\n", i, name, c.seed)
		}
	}
	for _, name := range names {
		fmt.Fprintf(out, "== %s: %d runs\n", name, n)
		for _, m := range endToEnd {
			v := append([]float64(nil), vals[name][m.Name]...)
			sort.Float64s(v)
			q1, q3 := quartiles(v)
			sp := relSpread(v)
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated"
			case sp > m.Bound:
				verdict, ok = "EXCEEDS BOUND", false
			case sp > m.Bound/3:
				verdict = "ok, above a third of the bound"
			}
			fmt.Fprintf(out, "   %-14s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  bound %.2f  %s\n",
				m.Name, median(v), q1, q3, sp, m.Bound, verdict)
		}
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
