package main

import (
	"encoding/json"
)

// metricSpec describes one metric the benchmark prints. BENCHMARK.json is
// generated from these tables (-print-spec) and a test keeps the two equal.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Layer  string  // per-layer only: the module the metric belongs to
	Moves  string  // per-layer only: what it should move, and where the prediction is no change
}

// workloadSpec names a workload and says why it exists, in one line.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"ingest_fanin", "closed loop, C cameras append looped clips via OpenWriter; op=segment commit, aux=Flush; codec encode, detect, storage writes, catalog do the work; planner, cache, server, router do none"},
	{"read_spill", "closed loop, C library readers, Zipf S/T/P mix over 2 videos whose views exceed the budget; op=read, aux=first batch of streamed reads; planner, admission, eviction, deferred tier, transcode all run"},
	{"serve_hot", "open loop, Poisson arrivals over C keep-alive connections, every response in vssd's cache; op=due time to last byte, aux=to first chunk; server framing/flush is the whole cost, codec and core bypassed"},
	{"cluster_mixed", "3 vssd nodes + router + front server; open-loop camera mux writes and tail-reads live GOPs beside closed-loop predicate queries; op=query, aux=live GOP due to tail-read; router, wire, planner work"},
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them; what "op" and "aux" time on each workload is in
// workloadSpecs and README.md. There is no aux_p95_ms: on cluster_mixed the
// live path's 95th percentile sits on the knee of a sub-millisecond tail and
// moved by 48% between ten runs of the same code, which no bound can gate;
// the p95 of each workload's second latency is printed by a traced run
// (ttfb_p95_ms, commit_p95_ms, read_p95_ms) and serve_hot enforces its own
// TTFB limit.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "aux_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "frames_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "stored_ratio", Unit: "ratio", Better: "lower", Bound: 0.05},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// layer a workload bypasses reports 0, which is the prediction.
var perLayer = []metricSpec{
	// The issue's workload-specific end-to-end names, measured on the
	// untraced half of a traced run. They are listed here because the
	// driver's contract has every workload report every end-to-end metric.
	{Name: "ingest_fps", Unit: "1/s", Better: "higher", Layer: "e2e", Moves: "= frames_per_s on ingest_fanin"},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "segment commit on ingest_fanin; due->WriteGOPs return on cluster_mixed"},
	{Name: "commit_p95_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "as commit_p50_ms"},
	{Name: "read_fps", Unit: "1/s", Better: "higher", Layer: "e2e", Moves: "= frames_per_s on read_spill"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "to last byte/frame on read_spill, serve_hot; tail reads on cluster_mixed"},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "as read_p50_ms"},
	{Name: "ttfb_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "due->first chunk on serve_hot"},
	{Name: "ttfb_p95_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "as ttfb_p50_ms; limit 20 ms"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "per predicate read on cluster_mixed"},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Layer: "e2e", Moves: "as query_p50_ms"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Layer: "e2e", Moves: "(errors + refusals + verification mismatches) / ops; 0 at the seed commit"},

	{Name: "frame.convert_us_per_frame", Unit: "us", Better: "lower", Layer: "frame", Moves: "frames_per_s@ingest_fanin, op_p50_ms@read_spill; no change on serve_hot"},
	{Name: "frame.resize_us_per_frame", Unit: "us", Better: "lower", Layer: "frame", Moves: "op_p50_ms@read_spill; no change on serve_hot"},

	{Name: "codec.encode_ms_per_gop.h264", Unit: "ms", Better: "lower", Layer: "codec", Moves: "frames_per_s, op_p50_ms@ingest_fanin; op_p50_ms@read_spill; no change on serve_hot, cluster_mixed"},
	{Name: "codec.encode_ms_per_gop.hevc", Unit: "ms", Better: "lower", Layer: "codec", Moves: "op_p50_ms, op_p95_ms@read_spill; no change elsewhere"},
	{Name: "codec.encode_busy_frac", Unit: "ratio", Better: "lower", Layer: "codec", Moves: "frames_per_s@ingest_fanin; ~0 on serve_hot, cluster_mixed"},
	{Name: "codec.bytes_per_frame.h264", Unit: "bytes", Better: "lower", Layer: "codec", Moves: "stored_ratio on every workload"},
	{Name: "codec.decode_ms_per_gop.h264", Unit: "ms", Better: "lower", Layer: "codec", Moves: "frames_per_s@read_spill; op_p50_ms@cluster_mixed; no change on ingest_fanin, serve_hot"},
	{Name: "codec.decode_ms_per_gop.hevc", Unit: "ms", Better: "lower", Layer: "codec", Moves: "op_p50_ms@read_spill (reads served from cached hevc views)"},
	{Name: "codec.decode_busy_frac", Unit: "ratio", Better: "lower", Layer: "codec", Moves: "frames_per_s@read_spill, op_p50_ms@cluster_mixed; ~0 on ingest_fanin, serve_hot"},
	{Name: "codec.ls_encode_mbps", Unit: "MB/s", Better: "higher", Layer: "codec", Moves: "stored_ratio, op_p95_ms@read_spill (deferred tier); no change on the other three"},
	{Name: "codec.ls_decode_mbps", Unit: "MB/s", Better: "higher", Layer: "codec", Moves: "op_p95_ms@read_spill; no change on the other three"},

	{Name: "detect.analyze_ms_per_gop", Unit: "ms", Better: "lower", Layer: "detect", Moves: "frames_per_s@ingest_fanin (cost) and op_p50_ms@cluster_mixed (exact filter): opposite directions for richer summaries; no change on read_spill, serve_hot"},

	{Name: "storage.reads", Unit: "count", Better: "lower", Layer: "storage", Moves: "op_p95_ms@read_spill; 0 on serve_hot"},
	{Name: "storage.writes", Unit: "count", Better: "lower", Layer: "storage", Moves: "op_p50_ms@ingest_fanin"},
	{Name: "storage.deletes", Unit: "count", Better: "lower", Layer: "storage", Moves: "eviction churn: op_p95_ms@read_spill"},
	{Name: "storage.errors", Unit: "count", Better: "lower", Layer: "storage", Moves: "0 everywhere"},
	{Name: "storage.read_mb", Unit: "MB", Better: "lower", Layer: "storage", Moves: "op_p50_ms@read_spill"},
	{Name: "storage.write_mb", Unit: "MB", Better: "lower", Layer: "storage", Moves: "op_p50_ms@ingest_fanin, stored_ratio"},
	{Name: "storage.read_busy_frac", Unit: "ratio", Better: "lower", Layer: "storage", Moves: "op_p95_ms@read_spill"},
	{Name: "storage.write_busy_frac", Unit: "ratio", Better: "lower", Layer: "storage", Moves: "op_p50_ms@ingest_fanin"},
	{Name: "storage.write_amp", Unit: "ratio", Better: "lower", Layer: "storage", Moves: "bytes written per byte of user video: stored_ratio, op_p50_ms@ingest_fanin"},
	{Name: "storage.op_ms_p50.read", Unit: "ms", Better: "lower", Layer: "storage", Moves: "op_p95_ms@read_spill, op_p50_ms@cluster_mixed (per-node on the cluster)"},
	{Name: "storage.op_ms_p50.write", Unit: "ms", Better: "lower", Layer: "storage", Moves: "op_p50_ms@ingest_fanin, aux_p50_ms@cluster_mixed"},

	{Name: "catalog.record_kb", Unit: "KB", Better: "lower", Layer: "catalog", Moves: "op_p95_ms@ingest_fanin, aux_p50_ms@cluster_mixed (per-commit record rewrite grows with GOP count); no change on serve_hot"},
	{Name: "catalog.put_us", Unit: "us", Better: "lower", Layer: "catalog", Moves: "as catalog.record_kb"},
	{Name: "catalog.sync_us", Unit: "us", Better: "lower", Layer: "catalog", Moves: "as catalog.record_kb"},

	{Name: "core.plan_busy_frac", Unit: "ratio", Better: "lower", Layer: "core", Moves: "op_p50_ms@read_spill; ~0 on serve_hot, ingest_fanin"},
	{Name: "core.plan_runs_per_read", Unit: "count", Better: "lower", Layer: "core", Moves: "op_p50_ms@read_spill"},
	{Name: "core.gops_decoded_per_read", Unit: "count", Better: "lower", Layer: "core", Moves: "op_p50_ms, frames_per_s@read_spill"},
	{Name: "core.stored_kb_read_per_read", Unit: "KB", Better: "lower", Layer: "core", Moves: "op_p50_ms@read_spill"},
	{Name: "core.admit_frac", Unit: "ratio", Better: "higher", Layer: "core", Moves: "stored_ratio, later op_p50_ms@read_spill"},
	{Name: "core.passthrough_frac", Unit: "ratio", Better: "higher", Layer: "core", Moves: "share of reads that decoded nothing: op_p50_ms@read_spill"},
	{Name: "core.cache_admit_busy_frac", Unit: "ratio", Better: "lower", Layer: "core", Moves: "op_p95_ms@read_spill"},
	{Name: "core.fetch_wait_busy_frac", Unit: "ratio", Better: "lower", Layer: "core", Moves: "op_p50_ms@read_spill, cluster_mixed"},
	{Name: "core.maintain_ms_p50", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_p95_ms@read_spill; the one Maintain on ingest_fanin"},
	{Name: "core.maintain_calls", Unit: "count", Better: "lower", Layer: "core", Moves: "fixed by the schedule"},
	{Name: "core.deferred_level_end", Unit: "count", Better: "lower", Layer: "core", Moves: "stored_ratio@read_spill"},
	{Name: "core.append_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_p50_ms, frames_per_s@ingest_fanin; 0 on read workloads"},
	{Name: "core.flush_ms_p50", Unit: "ms", Better: "lower", Layer: "core", Moves: "aux_p50_ms@ingest_fanin; 0 on read workloads"},
	{Name: "core.query_gops_considered", Unit: "count", Better: "lower", Layer: "core", Moves: "fixed by the schedule; 0 on the other three"},
	{Name: "core.query_gops_decoded", Unit: "count", Better: "lower", Layer: "core", Moves: "op_p50_ms@cluster_mixed"},
	{Name: "core.query_skip_frac", Unit: "ratio", Better: "higher", Layer: "core", Moves: "op_p50_ms@cluster_mixed"},
	{Name: "core.query_nosummary", Unit: "count", Better: "lower", Layer: "core", Moves: "0: every archive GOP is summarised at ingest"},
	{Name: "core.query_selectivity", Unit: "ratio", Better: "lower", Layer: "core", Moves: "fixed by the inputs"},
	{Name: "core.query_ms_p50.sel10", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_p50_ms@cluster_mixed"},
	{Name: "core.query_ms_p50.sel25", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_p50_ms@cluster_mixed"},
	{Name: "core.query_ms_p50.scan", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_p95_ms@cluster_mixed; the planner-bypass control"},

	{Name: "server.cache_hit_frac", Unit: "ratio", Better: "higher", Layer: "server", Moves: "op_p50_ms, aux_p50_ms@serve_hot; 0 on ingest_fanin, read_spill"},
	{Name: "server.admission_wait_busy_frac", Unit: "ratio", Better: "lower", Layer: "server", Moves: "op_p95_ms, ttfb_p95_ms@serve_hot"},
	{Name: "server.admission_rejected", Unit: "count", Better: "lower", Layer: "server", Moves: "0; each is a failed op"},
	{Name: "server.flushes_per_read", Unit: "count", Better: "lower", Layer: "server", Moves: "op_p50_ms@serve_hot"},
	{Name: "server.coalesced_frac", Unit: "ratio", Better: "higher", Layer: "server", Moves: "op_p50_ms@serve_hot"},
	{Name: "server.pool_hit_frac", Unit: "ratio", Better: "higher", Layer: "server", Moves: "op_p95_ms@serve_hot"},
	{Name: "server.kb_sent_per_read", Unit: "KB", Better: "lower", Layer: "server", Moves: "op_p50_ms@serve_hot, cluster_mixed"},
	{Name: "server.flush_busy_frac", Unit: "ratio", Better: "lower", Layer: "server", Moves: "op_p50_ms@serve_hot"},
	{Name: "server.ttfb_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "aux_p50_ms@serve_hot (server's own histogram, within 2x)"},
	{Name: "server.client_overhead_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "client TTFB p50 - server TTFB p50: wire + client share of aux_p50_ms@serve_hot"},

	{Name: "router.node_reads", Unit: "count", Better: "lower", Layer: "router", Moves: "op_p50_ms@cluster_mixed; 0 on the other three"},
	{Name: "router.node_writes", Unit: "count", Better: "lower", Layer: "router", Moves: "aux_p50_ms, stored_ratio@cluster_mixed"},
	{Name: "router.node_mb_out", Unit: "MB", Better: "lower", Layer: "router", Moves: "op_p50_ms@cluster_mixed"},
	{Name: "router.node_mb_in", Unit: "MB", Better: "lower", Layer: "router", Moves: "aux_p50_ms@cluster_mixed"},
	{Name: "router.node_kb_per_match", Unit: "KB", Better: "lower", Layer: "router", Moves: "the ROADMAP pushdown gate: op_p50_ms@cluster_mixed"},
	{Name: "router.write_fanout", Unit: "ratio", Better: "lower", Layer: "router", Moves: "node writes per routed write; = replicas"},
	{Name: "router.failovers", Unit: "count", Better: "lower", Layer: "router", Moves: "0 on a healthy fleet"},
	{Name: "router.journal_depth_end", Unit: "count", Better: "lower", Layer: "router", Moves: "0 on a healthy fleet"},
	{Name: "router.gop_rtt_ms_p50", Unit: "ms", Better: "lower", Layer: "router", Moves: "op_p50_ms, aux_p50_ms@cluster_mixed"},

	{Name: "trace.self_frac.harness", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "lane time outside ops plus, on HTTP workloads, client and wire"},
	{Name: "trace.self_frac.server", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "op self time apportioned to admission + flush"},
	{Name: "trace.self_frac.router", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "router span self time"},
	{Name: "trace.self_frac.core", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "op self time apportioned to plan + cache admit (+ rest, on library workloads)"},
	{Name: "trace.self_frac.codec", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "op self time apportioned to decode + encode"},
	{Name: "trace.self_frac.storage", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "leaf backend span time"},

	{Name: "proc.cpu_s_per_kop", Unit: "s", Better: "lower", Layer: "proc", Moves: "noise vs real change"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower", Layer: "proc", Moves: "noise vs real change"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower", Layer: "proc", Moves: "op_p95_ms everywhere"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "proc", Moves: "memory moved into set-up shows here"},
	{Name: "bench.sched_lag_ms_p95", Unit: "ms", Better: "lower", Layer: "bench", Moves: "validates the open loops"},
	{Name: "bench.backlog_end", Unit: "count", Better: "lower", Layer: "bench", Moves: "validates the open loops; must be 0"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "traced op p50 / untraced op p50 - 1"},
	{Name: "bench.samples", Unit: "count", Better: "higher", Layer: "bench", Moves: "ops behind op_p50_ms/op_p95_ms"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	return json.MarshalIndent(doc, "", "  ")
}
