// Vssctl is the administrative CLI for a VSS store: create, write, read,
// delete, inspect, compact, and jointly compress videos. Writes ingest
// synthetic Visual Road footage (this repository is offline and carries no
// real video); reads report what was produced and can dump decoded frames
// as PGM for inspection.
//
// Examples:
//
//	vssctl -store /tmp/vss create -name traffic
//	vssctl -store /tmp/vss write -name traffic -seconds 10 -codec h264
//	vssctl -store /tmp/vss read -name traffic -start 2 -end 5 -codec hevc
//	vssctl -store /tmp/vss stat -name traffic
//	vssctl -store /tmp/vss compact -name traffic
//	vssctl -store /tmp/vss joint
//	vssctl -store /tmp/vss maintain
//	vssctl -store /tmp/vss delete -name traffic
//	vssctl metrics -addr http://localhost:7744
//	vssctl traces -addr http://localhost:7740
//
// The metrics and traces commands talk to a RUNNING vssd (a node or a
// -nodes router) over HTTP and need no -store: they fetch and pretty-print
// the /metrics snapshot and the /debug/traces slow-trace ring.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"

	"repro/internal/backendcli"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/visualroad"
	"repro/vss"
)

func main() {
	store := flag.String("store", "", "store directory (required)")
	shards := flag.Int("shards", 0, "shard GOP storage across N roots under the store directory (0 = single root)")
	shardRoots := flag.String("shard-roots", "", "comma-separated explicit shard root directories (overrides -shards)")
	replicas := flag.Int("replicas", 1, "replicas of each GOP across the shard roots or nodes (needs -shards/-shard-roots/-nodes; 1 = no replication)")
	backendKind := flag.String("backend", "", "storage backend override: localfs (default; sharding via -shards)")
	nodes := flag.String("nodes", "", "route GOP storage to a vssd node fleet (comma-separated base URLs; the same -nodes and -replicas the router vssd runs with)")
	flag.Parse()
	// The daemon-facing commands dispatch before the -store requirement:
	// they speak HTTP to a running vssd, not to a store
	// directory (same early-dispatch shape as recover-catalog below).
	if flag.NArg() >= 1 {
		switch flag.Arg(0) {
		case "metrics":
			runMetrics(flag.Args()[1:])
			return
		case "traces":
			runTraces(flag.Args()[1:])
			return
		}
	}
	if *store == "" || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	if *backendKind == "mem" {
		// A one-shot CLI with a process-local GOP store can only plant
		// catalog rows whose data evaporates at exit, wedging the store.
		fatal(fmt.Errorf("-backend mem is process-local and useless in a one-shot CLI (it would leave catalog metadata with no data); use vssd -backend mem or the library"))
	}
	backend, err := backendcli.Open("vssctl", *store, *backendKind, *shards, *replicas, *shardRoots, *nodes, os.Stderr)
	if err != nil {
		fatal(err)
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	if cmd == "recover-catalog" {
		// Must run BEFORE the store is opened: it rebuilds the catalog a
		// fresh store directory is missing (vss.Open would create an empty
		// one and then refuse to restore over it without -force).
		runRecoverCatalog(*store, backend, args)
		return
	}

	// Against a node fleet the catalog replicates into the fleet on
	// maintain (as on a vssd -nodes router), so recover-catalog has a
	// snapshot to restore from no matter which front end ran maintenance.
	sys, err := vss.Open(*store, vss.Options{Backend: backend, SnapshotCatalog: *nodes != ""})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()

	switch cmd {
	case "create":
		runCreate(sys, args)
	case "write":
		runWrite(sys, args)
	case "read":
		runRead(sys, args)
	case "query":
		runQuery(sys, args)
	case "delete":
		runDelete(sys, args)
	case "stat":
		runStat(sys, args)
	case "compact":
		runCompact(sys, args)
	case "joint":
		runJoint(sys, args)
	case "maintain":
		runMaintain(sys, args)
	case "ls":
		for _, name := range sys.Videos() {
			fmt.Println(name)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: vssctl -store DIR [-shards N | -nodes URLS] COMMAND [flags]
       vssctl metrics|traces -addr URL
commands: create write read query delete stat compact joint maintain
          recover-catalog ls metrics traces

query runs a predicate read: only GOPs whose ingest-time feature
summaries could match are decoded, e.g.
  vssctl -store DIR query -name traffic -where "motion > 2 and count >= 1"

metrics and traces need no -store: they fetch a running daemon's
/metrics snapshot and /debug/traces slow-trace ring over HTTP
(-addr is the daemon base URL; -json dumps the raw document).

A store written by a sharded vssd (-shards / -shard-roots, plus
-replicas when replicated) must be opened with the same sharding flags,
or its GOPs will appear missing. The same holds for a routed store
(the -nodes and -replicas of the router vssd): same node list, same
order. With -nodes, vssctl probes the fleet first and warns about
unreachable nodes.

maintain runs one pass of background maintenance (deferred lossless
compression under budget pressure, compaction of contiguous cached
views, and — with -replicas — a replication scrub that re-copies missing
or stale replicas) across every video — the same pass vssd's -maintain
loop runs on an interval. Use it to trigger storage reclamation, or to
restore full replication after swapping out a dead shard root, without
writing Go.

recover-catalog rebuilds <store>/catalog from the snapshot a vssd -nodes
router's maintenance loop replicated into the backend (see
docs/CLUSTER.md): point it at the same -nodes fleet and an empty store
directory, then start vssd -nodes on that directory.`)
}

func runRecoverCatalog(store string, backend vss.Backend, args []string) {
	fs := flag.NewFlagSet("recover-catalog", flag.ExitOnError)
	force := fs.Bool("force", false, "overwrite an existing catalog")
	fs.Parse(args)
	if backend == nil {
		fatal(fmt.Errorf("recover-catalog: pick the backend holding the snapshot (-nodes for a routed fleet, -shards/-shard-roots for local sharding)"))
	}
	if err := vss.RestoreCatalog(store, backend, *force); err != nil {
		fatal(err)
	}
	fmt.Printf("catalog restored into %s\n", store)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vssctl:", err)
	os.Exit(1)
}

// runMetrics fetches and pretty-prints a running daemon's /metrics
// snapshot. -json dumps the raw JSON; -prometheus the text exposition.
func runMetrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7744", "vssd base URL (a node or a -nodes router)")
	asJSON := fs.Bool("json", false, "dump the raw JSON snapshot")
	asProm := fs.Bool("prometheus", false, "dump the Prometheus text exposition")
	fs.Parse(args)
	if *asJSON || *asProm {
		url := *addr + "/metrics"
		if *asProm {
			url += "?format=prometheus"
		}
		resp, err := http.Get(url)
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("metrics: %s", resp.Status))
		}
		io.Copy(os.Stdout, resp.Body)
		return
	}
	c := &server.Client{Base: *addr}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		fatal(err)
	}
	r, a := snap.Reads, snap.Admission
	fmt.Printf("reads:     started=%d completed=%d cancelled=%d errors=%d in-flight=%d\n",
		r.Started, r.Completed, r.Cancelled, r.Errors, r.InFlight)
	fmt.Printf("admission: queue=%d/%d rejected=%d aborted=%d\n",
		a.QueueDepth, a.MaxQueued, a.Rejected, a.Aborted)
	fmt.Printf("cache:     hits=%d misses=%d hit-rate=%.2f bytes=%d/%d\n",
		snap.Cache.Hits, snap.Cache.Misses, snap.Cache.HitRate, snap.Cache.Bytes, snap.Cache.MaxBytes)
	fmt.Printf("response:  bytes=%d flushes=%d coalesced=%d ttfb p50=%.3fms p99=%.3fms\n",
		snap.Response.BytesWritten, snap.Response.Flushes, snap.Response.CoalescedChunks,
		snap.Response.TTFBP50Millis, snap.Response.TTFBP99Millis)
	fmt.Println("pipeline:")
	for _, name := range obs.StageNames() {
		st := snap.Pipeline[name]
		fmt.Printf("  %-15s count=%-8d total=%-10.1fms p50=%-8.3fms p99=%.3fms\n",
			name, st.Count, st.TotalMillis, st.P50Millis, st.P99Millis)
	}
	if cl := snap.Cluster; cl != nil {
		fmt.Printf("cluster:   nodes=%d replicas=%d failovers=%d journal=%d\n",
			cl.Nodes, cl.Replicas, cl.Failovers, cl.JournalDepth)
		for _, n := range cl.NodeHealth {
			state := "healthy"
			if n.Demoted {
				state = "DEMOTED"
			}
			fmt.Printf("  %s errors=%d %s\n", n.Addr, n.Errors, state)
		}
	}
	fmt.Printf("videos:    %d\n", len(snap.Videos))
}

// runTraces fetches and pretty-prints a running daemon's /debug/traces
// slow-trace ring, slowest first.
func runTraces(args []string) {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7744", "vssd base URL (a node or a -nodes router)")
	asJSON := fs.Bool("json", false, "dump the raw JSON document")
	top := fs.Int("n", 0, "show at most N traces (0 = all retained)")
	fs.Parse(args)
	c := &server.Client{Base: *addr}
	dump, err := c.Traces(context.Background())
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		out, _ := json.MarshalIndent(dump, "", "  ")
		os.Stdout.Write(append(out, '\n'))
		return
	}
	traces := dump.Traces
	if *top > 0 && len(traces) > *top {
		traces = traces[:*top]
	}
	fmt.Printf("%d trace(s) retained (capacity %d), slowest first\n", len(dump.Traces), dump.Capacity)
	for _, t := range traces {
		fmt.Printf("%s %-9s video=%q status=%d bytes=%d total=%.2fms ttfb=%.2fms\n",
			t.ID, t.Name, t.Video, t.Status, t.Bytes, t.DurationMillis, t.TTFBMillis)
		if s := t.StageSummary(); s != "" {
			fmt.Printf("    stages: %s\n", s)
		}
		for _, sp := range t.Spans {
			fmt.Printf("    span %s %q +%.2fms %.2fms", sp.Stage, sp.Label, sp.OffsetMillis, sp.DurationMillis)
			if sp.Err != "" {
				fmt.Printf(" err=%q", sp.Err)
			}
			fmt.Println()
		}
		if t.SpansDropped > 0 {
			fmt.Printf("    (%d spans dropped)\n", t.SpansDropped)
		}
	}
}

func runCreate(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	name := fs.String("name", "", "video name")
	budget := fs.Int64("budget", 0, "storage budget bytes (0 default, <0 unlimited)")
	fs.Parse(args)
	if *name == "" {
		fatal(fmt.Errorf("create: -name required"))
	}
	if err := sys.Create(*name, *budget); err != nil {
		fatal(err)
	}
	fmt.Printf("created %s\n", *name)
}

func runWrite(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("write", flag.ExitOnError)
	name := fs.String("name", "", "video name")
	seconds := fs.Int("seconds", 10, "seconds of synthetic footage")
	width := fs.Int("width", 240, "frame width")
	height := fs.Int("height", 136, "frame height")
	fps := fs.Int("fps", 8, "frame rate")
	cd := fs.String("codec", "h264", "codec ("+vss.CodecNames()+")")
	quality := fs.Int("quality", 0, "encode quality 1-100 (0 default)")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	if *name == "" {
		fatal(fmt.Errorf("write: -name required"))
	}
	frames := visualroad.Generate(visualroad.Config{
		Width: *width, Height: *height, FPS: *fps, Seed: *seed,
	}, *seconds**fps)
	err := sys.Write(*name, vss.WriteSpec{FPS: *fps, Codec: vss.Codec(*cd), Quality: *quality}, frames)
	if err != nil {
		fatal(err)
	}
	n, _ := sys.TotalBytes(*name)
	fmt.Printf("wrote %d frames to %s (%d bytes on disk)\n", len(frames), *name, n)
}

func runRead(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("read", flag.ExitOnError)
	name := fs.String("name", "", "video name")
	start := fs.Float64("start", 0, "start seconds")
	end := fs.Float64("end", 0, "end seconds (0 = video end)")
	width := fs.Int("width", 0, "output width (0 source)")
	height := fs.Int("height", 0, "output height (0 source)")
	cd := fs.String("codec", "raw", "output codec ("+vss.CodecNames()+")")
	dump := fs.String("dump", "", "dump first decoded frame to this PGM file")
	fs.Parse(args)
	if *name == "" {
		fatal(fmt.Errorf("read: -name required"))
	}
	spec := vss.ReadSpec{
		S: vss.Spatial{Width: *width, Height: *height},
		T: vss.Temporal{Start: *start, End: *end},
	}
	if *cd != "raw" {
		spec.P.Codec = vss.Codec(*cd)
	}
	res, err := sys.Read(*name, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("read %d frames (%dx%d @ %d fps), plan=%s cost=%.0f runs=%d gops-decoded=%d cached=%v\n",
		res.FrameCount(), res.Width, res.Height, res.FPS,
		res.Stats.PlanMethod, res.Stats.PlanCost, res.Stats.PlanRuns, res.Stats.GOPsDecoded, res.Stats.Admitted)
	if *dump != "" && len(res.Frames) > 0 {
		if err := dumpPGM(*dump, res); err != nil {
			fatal(err)
		}
		fmt.Printf("dumped first frame to %s\n", *dump)
	}
}

// runQuery executes a predicate read over the store and prints each
// matching frame's index, timestamp, and content record, followed by the
// planner's skip statistics.
func runQuery(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	name := fs.String("name", "", "video name")
	where := fs.String("where", "", `predicate, e.g. "motion > 2 and count >= 1" or "color ~ 200,40,40 < 60"`)
	start := fs.Float64("start", 0, "start seconds")
	end := fs.Float64("end", 0, "end seconds (0 = video end)")
	limit := fs.Int("limit", 20, "print at most N matches (0 = all)")
	dump := fs.String("dump", "", "dump the first matching frame to this PGM file")
	fs.Parse(args)
	if *name == "" || *where == "" {
		fatal(fmt.Errorf("query: -name and -where required"))
	}
	pred, err := vss.ParsePredicate(*where)
	if err != nil {
		fatal(err)
	}
	res, err := sys.ReadWhere(context.Background(), *name, pred, *start, *end)
	if err != nil {
		fatal(err)
	}
	for i, m := range res.Matches {
		if *limit > 0 && i >= *limit {
			fmt.Printf("  ... %d more\n", len(res.Matches)-i)
			break
		}
		fmt.Printf("  frame %-6d t=%-8.3fs motion=%-7.3f count=%d\n",
			m.Index, m.Time, m.Info.Motion, m.Info.Count())
	}
	st := res.Stats
	fmt.Printf("query %q: %d/%d frames matched; gops considered=%d skipped=%d decoded=%d (no-summary=%d), bytes=%d\n",
		pred, st.FramesMatched, st.FramesScanned, st.GOPsConsidered, st.GOPsSkipped, st.GOPsDecoded, st.NoSummary, st.BytesRead)
	if *dump != "" && len(res.Matches) > 0 {
		f := res.Matches[0].Frame.Convert(vss.Gray)
		out := fmt.Appendf(nil, "P5\n%d %d\n255\n", f.Width, f.Height)
		out = append(out, f.Data...)
		if err := os.WriteFile(*dump, out, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("dumped frame %d to %s\n", res.Matches[0].Index, *dump)
	}
}

// dumpPGM writes the first frame's luma as a binary PGM image.
func dumpPGM(path string, res *vss.ReadResult) error {
	f := res.Frames[0].Convert(vss.Gray)
	out := fmt.Appendf(nil, "P5\n%d %d\n255\n", f.Width, f.Height)
	out = append(out, f.Data...)
	return os.WriteFile(path, out, 0o644)
}

func runDelete(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("delete", flag.ExitOnError)
	name := fs.String("name", "", "video name")
	fs.Parse(args)
	if err := sys.Delete(*name); err != nil {
		fatal(err)
	}
	fmt.Printf("deleted %s\n", *name)
}

func runStat(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	name := fs.String("name", "", "video name (empty = all)")
	fs.Parse(args)
	names := sys.Videos()
	if *name != "" {
		names = []string{*name}
	}
	for _, n := range names {
		total, err := sys.TotalBytes(n)
		if err != nil {
			fatal(err)
		}
		v, phys, err := sys.Store().Info(n)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: duration=%.1fs fps=%d %dx%d budget=%d bytes=%d views=%d\n",
			n, v.Duration, v.FPS, v.Width, v.Height, v.Budget, total, len(phys))
		for _, p := range phys {
			tag := ""
			if p.Orig {
				tag = " (original)"
			}
			fmt.Printf("  view %d: %dx%d@%d %s q=%d [%.1fs, %.1fs) gops=%d bytes=%d psnr-bound=%.1f%s\n",
				p.ID, p.Width, p.Height, p.FPS, p.Codec, p.Quality, p.Start, p.End(), len(p.GOPs), p.Bytes(), psnrOf(p.MSE), tag)
		}
	}
}

func psnrOf(mse float64) float64 {
	if mse <= 0 {
		return 350
	}
	return 10 * math.Log10(255*255/mse)
}

func runCompact(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	name := fs.String("name", "", "video name")
	fs.Parse(args)
	n, err := sys.Compact(*name)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compacted %s: %d merges\n", *name, n)
}

func runMaintain(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("maintain", flag.ExitOnError)
	fs.Parse(args)
	before := storeBytes(sys)
	if err := sys.Maintain(); err != nil {
		fatal(err)
	}
	after := storeBytes(sys)
	fmt.Printf("maintenance pass complete: %d -> %d bytes across %d videos\n",
		before, after, len(sys.Videos()))
}

// storeBytes sums the stored size of every video.
func storeBytes(sys *vss.System) int64 {
	var total int64
	for _, name := range sys.Videos() {
		if n, err := sys.TotalBytes(name); err == nil {
			total += n
		}
	}
	return total
}

func runJoint(sys *vss.System, args []string) {
	fs := flag.NewFlagSet("joint", flag.ExitOnError)
	merge := fs.String("merge", "mean", "merge function (mean|unprojected)")
	fs.Parse(args)
	mode := vss.MergeMean
	if *merge == "unprojected" {
		mode = vss.MergeUnprojected
	}
	st, err := sys.JointCompress(mode)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("joint compression: scanned=%d pairs=%d compressed=%d dups=%d aborted=%d bytes %d -> %d\n",
		st.Scanned, st.Pairs, st.Compressed, st.Duplicates, st.Aborted, st.BytesBefore, st.BytesAfter)
}
