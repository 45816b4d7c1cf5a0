// Vssd is the VSS serving daemon: it opens a store and exposes it over
// HTTP with streaming reads, admission control, a hot-response cache, and
// live metrics (see internal/server for the endpoint and wire-format
// reference). The store's background loop runs while serving: Maintain
// (deferred compression, compaction, scrub) every -maintain interval,
// and on a replicated backend a drain of the write-repair journal every
// five seconds.
//
// Examples:
//
//	vssd -store /var/lib/vss
//	vssd -store /tmp/vss -addr 127.0.0.1:7744 -max-inflight 16 -cache-mb 256
//	vssd -store /tmp/vss -maintain 30s
//	vssd -store /tmp/vss -shards 4
//	vssd -store /tmp/vss -shards 4 -replicas 2 -maintain 30s
//	vssd -store /tmp/vss -shard-roots /disk1/vss,/disk2/vss
//	vssd -store /srv/router -replicas 2 -nodes http://n0:7744,http://n1:7744,http://n2:7744
//
// Every vssd is also a storage node (the /gops plane is always on), and
// -nodes makes one the fleet's router: each GOP lives on -replicas nodes
// picked by a stable hash, reads fail over, the catalog is snapshotted
// into the fleet on every Maintain, and -maintain defaults to 1m. The
// node LIST ORDER is part of the cluster's identity; see docs/CLUSTER.md.
//
// GET /debug/traces returns the 64 slowest recent requests with their
// per-stage breakdowns (docs/TRACING.md); -log-requests adds one
// structured line per finished read, and -codec sets the output codec of
// reads that omit codec=.
//
// Storage backend selection: by default GOPs live in a single tree under
// <store>/data. -shards N spreads them across N roots under the store
// directory (data-shard0..N-1) by a stable hash; -shard-roots pins the
// roots explicitly (one per disk in a real deployment — order matters and
// must be stable across restarts). -replicas R keeps each GOP on R
// distinct roots: reads fail over when a root degrades, the journal
// drain re-copies replicas a write was seen to miss, and the -maintain
// loop's scrub pass re-copies everything else, so the store survives
// losing a disk (run with -maintain when using -replicas; the
// "replication" section of /metrics reports failovers, per-shard health,
// and scrub results). Raising -replicas on an existing store is safe;
// changing -shards or root order is not. -backend mem serves GOP data from
// memory, for benchmarking only: the metadata catalog under
// <store>/catalog is ALWAYS on disk, so after a restart it describes
// videos whose in-memory bytes are gone (reads fail, recreating errors
// with already-exists) — point -backend mem at a fresh or throwaway
// store directory. A store must be reopened with the same backend
// configuration it was written with.
//
// Shut down with SIGINT/SIGTERM; in-flight requests get a grace period to
// drain before the store is closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backendcli"
	"repro/internal/server"
	"repro/vss"
)

func main() {
	store := flag.String("store", "", "store directory (required)")
	addr := flag.String("addr", ":7744", "listen address (host:port; port 0 picks a free port)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing reads (0 = 2*GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max reads waiting for a slot before 429 (0 = 4*max-inflight)")
	perClient := flag.Int("per-client", 0, "max in-flight+queued reads per client (0 = max-inflight)")
	cacheMB := flag.Int64("cache-mb", 64, "hot-response cache size in MiB (0 disables)")
	workers := flag.Int("workers", 0, "store CPU worker pool size (0 = GOMAXPROCS)")
	maintain := flag.Duration("maintain", 0, "background maintenance interval: compaction, scrub-repair, catalog snapshot (0 disables; 1m when -nodes is set)")
	shards := flag.Int("shards", 0, "shard GOP storage across N roots under the store directory (0 = single root)")
	shardRoots := flag.String("shard-roots", "", "comma-separated explicit shard root directories (overrides -shards)")
	replicas := flag.Int("replicas", 1, "replicas of each GOP across the shard roots (needs -shards/-shard-roots; 1 = no replication)")
	backendKind := flag.String("backend", "", "storage backend override: localfs|mem (default localfs; sharding via -shards)")
	nodes := flag.String("nodes", "", "route GOP storage to a vssd node fleet, making this vssd its router (comma-separated base URLs; order is part of the cluster identity; -replicas counts copies across nodes)")
	logRequests := flag.Bool("log-requests", false, "log one structured line per request to stderr (trace ID, status, stage timings)")
	defCodec := flag.String("codec", "", "default output codec for reads that omit codec= ("+vss.CodecNames()+"; empty = raw frames)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on a dedicated address, e.g. localhost:6060 (off by default)")
	flag.Parse()
	if *store == "" {
		fmt.Fprintln(os.Stderr, "usage: vssd -store DIR [-addr HOST:PORT] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *defCodec != "" && *defCodec != "raw" && !vss.Codec(*defCodec).Valid() {
		fatal(fmt.Errorf("-codec %q: not a registered codec (have %s)", *defCodec, vss.CodecNames()))
	}

	backend, err := backendcli.Open("vssd", *store, *backendKind, *shards, *replicas, *shardRoots, *nodes, os.Stderr)
	if err != nil {
		fatal(err)
	}
	// A router maintains every minute unless -maintain says otherwise.
	if *nodes != "" {
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "maintain" })
		if !explicit {
			*maintain = time.Minute
		}
	}
	sys, err := vss.Open(*store, vss.Options{Workers: *workers, Backend: backend, SnapshotCatalog: *nodes != ""})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	stop := sys.StartBackground(*maintain)
	defer stop()

	if *logRequests {
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	srv := server.New(sys, server.Config{
		MaxInFlightReads:  *maxInflight,
		MaxQueuedReads:    *maxQueue,
		MaxReadsPerClient: *perClient,
		CacheBytes:        *cacheMB << 20,
		RequestLog:        *logRequests,
		DefaultCodec:      vss.Codec(*defCodec),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The listen line is a readiness contract: tooling (the CI smoke test,
	// scripts) waits for it and parses the resolved address, which matters
	// when -addr requests port 0.
	fmt.Printf("vssd: serving %s on %s\n", *store, ln.Addr())
	// The debug announcement must come after the readiness line above:
	// tooling parses the first line containing " on " for the serving
	// address.
	if *debugAddr != "" {
		dbg, err := server.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("vssd: debug (pprof) at http://%s/debug/pprof/\n", dbg)
	}

	httpSrv := &http.Server{Handler: srv}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("vssd: shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vssd:", err)
	os.Exit(1)
}
