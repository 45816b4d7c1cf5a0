// Package backendcli resolves the storage-backend CLI flags that vssd
// and vssctl share (-backend, -shards, -shard-roots, -replicas, -nodes),
// so the binaries select backends identically — a store written by a
// sharded daemon is inspected with the same flags — and all warn about
// the same traps.
package backendcli

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/storage"
)

// Open resolves the flag tuple into a storage backend. nil means "the
// library default" (localfs under <store>/data). Conflicting or unknown
// combinations error rather than silently picking a winner.
//
// nodes routes GOP storage to a fleet of vssd nodes over the wire
// protocol (comma-separated base URLs; see docs/CLUSTER.md). The node
// list ORDER is part of the cluster's identity, exactly like shard
// roots. replicas then counts copies across distinct nodes instead of
// local roots. The fleet is probed before Open returns: unreachable
// nodes print a warning to warn, tagged with prog, rather than fail —
// a fleet mid-rolling-restart still serves through its healthy
// replicas, while a misconfigured list is loud at startup.
//
// Without nodes, replicas > 1 requires a sharded backend (-shards or
// -shard-roots) and keeps each GOP on that many distinct shard roots,
// with read failover and scrub-repair; replicas <= 1 keeps a single
// copy. It must not exceed the number of roots (or nodes).
//
// When no flag picks a backend and the VSS_BACKEND environment variable
// is set, the library will honor the variable (its test-suite parity
// hook) — a daemon silently serving an empty volatile store because of
// a stray exported variable is an operator trap, so that case prints a
// loud warning to warn, tagged with prog. An explicit `-backend
// localfs` pins localfs and ignores the variable.
func Open(prog, store, kind string, shards, replicas int, shardRoots, nodes string, warn io.Writer) (storage.Backend, error) {
	sharding := shards > 0 || shardRoots != ""
	if nodes != "" {
		if sharding {
			return nil, fmt.Errorf("-nodes conflicts with -shards/-shard-roots (the nodes hold the GOPs; shard on the nodes themselves)")
		}
		if kind != "" {
			return nil, fmt.Errorf("-nodes conflicts with -backend %s", kind)
		}
		cluster, err := router.Open(splitList(nodes), replicas, storage.RemoteOptions{})
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := cluster.Ping(ctx); err != nil {
			fmt.Fprintf(warn, "%s: WARNING: fleet not fully healthy: %v\n", prog, err)
		}
		return cluster, nil
	}
	if replicas > 1 && !sharding {
		return nil, fmt.Errorf("-replicas %d needs a sharded backend (-shards or -shard-roots) or a node fleet (-nodes)", replicas)
	}
	switch kind {
	case "":
	case "localfs":
		if sharding {
			return nil, fmt.Errorf("-backend localfs conflicts with -shards/-shard-roots")
		}
		return storage.Open(filepath.Join(store, "data"))
	case "mem":
		if sharding {
			return nil, fmt.Errorf("-backend mem conflicts with -shards/-shard-roots")
		}
		return storage.NewMem(), nil
	default:
		return nil, fmt.Errorf("unknown -backend %q (want localfs or mem; sharding via -shards, a node fleet via -nodes)", kind)
	}
	if shardRoots != "" {
		return storage.OpenShardedReplicated(splitList(shardRoots), replicas)
	}
	if shards > 0 {
		return storage.OpenShardedReplicated(core.ShardRoots(store, shards), replicas)
	}
	if env := os.Getenv("VSS_BACKEND"); env != "" {
		fmt.Fprintf(warn, "%s: WARNING: no backend flags given; the store will honor VSS_BACKEND=%q (mem is volatile: data will not survive this process)\n", prog, env)
	}
	return nil, nil
}

// splitList splits a comma-separated flag value, trimming whitespace
// and dropping empty elements (a trailing comma is not a node).
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}
