// Package router composes vssd storage nodes into one replicated
// storage.Backend. All of the routing machinery — hash-ring placement of
// every GOP on R of N members, parallel write fan-out, read failover
// with demotion of flapping members, the write-repair journal, scrub —
// is storage.Ring, the same implementation the sharded backend runs
// over local roots; this package only supplies the members
// (storage.Remote clients speaking the vssd wire protocol, labelled by
// node address) and the fleet-facing surface: the "cluster" backend
// kind, the readiness probe (Ping), and the /metrics cluster section
// (ClusterStats).
//
// The router itself holds no durable state: placement is a pure
// function of the address and the node list, and the journal is a
// rediscoverable cache. A router host can be replaced at any time; with
// core's Options.SnapshotCatalog, even its metadata catalog is
// rebuildable from the fleet (core.RestoreCatalog). The node list ORDER
// is part of the cluster's identity, exactly like sharded roots.
// docs/CLUSTER.md is the operator-facing description.
package router

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/server"
	"repro/internal/storage"
)

// Cluster is a storage.Ring over a fleet of replica stores — in
// production storage.Remote nodes speaking the vssd wire protocol. The
// embedded ring provides the whole storage.Backend surface plus
// storage.Scrubber, the context-aware and size-hinted reads, and
// Repair; Cluster adds storage.ClusterReporter, which is what makes
// /metrics report the fleet as a cluster.
type Cluster struct {
	*storage.Ring
	nodes  []storage.Backend
	labels []string
}

// Open connects to a fleet of vssd nodes and returns the routing
// backend over them: one keep-alive Client per address, wrapped in
// storage.Remote with the given retry options. The address ORDER is
// part of the cluster's identity — reopening the same fleet in a
// different order scatters reads. Open does not probe the nodes; call
// Ping for that.
func Open(addrs []string, replicas int, opts storage.RemoteOptions) (*Cluster, error) {
	nodes := make([]storage.Backend, len(addrs))
	for i, addr := range addrs {
		nodes[i] = storage.NewRemote(&server.Client{Base: addr, Name: "vssrouter"}, opts)
	}
	return New(nodes, addrs, replicas)
}

// New builds a Cluster over arbitrary replica stores — the constructor
// tests use with in-memory nodes. labels may be nil (node indexes are
// used) or must match nodes in length.
func New(nodes []storage.Backend, labels []string, replicas int) (*Cluster, error) {
	if labels == nil {
		labels = make([]string, len(nodes))
		for i := range labels {
			labels[i] = fmt.Sprintf("node-%d", i)
		}
	}
	ring, err := storage.NewRing("cluster", nodes, labels, replicas)
	if err != nil {
		return nil, err
	}
	return &Cluster{Ring: ring, nodes: nodes, labels: labels}, nil
}

// Ping probes every node's health endpoint (for nodes that have one)
// and joins the failures — the readiness check backendcli runs when a
// daemon or vssctl opens a -nodes fleet.
func (c *Cluster) Ping(ctx context.Context) error {
	var errs []error
	for i, n := range c.nodes {
		p, ok := n.(interface{ Ping(context.Context) error })
		if !ok {
			continue
		}
		if err := p.Ping(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.labels[i], err))
		}
	}
	return errors.Join(errs...)
}

// ClusterStats snapshots the fleet's health for the /metrics cluster
// section. Safe for concurrent use.
func (c *Cluster) ClusterStats() storage.ClusterStats { return c.FleetStats() }
