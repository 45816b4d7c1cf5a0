package storage

import "fmt"

// OpenSharded creates (if needed) and opens one localfs store per root
// and returns the "sharded" Ring over them, with no replication (every
// GOP on exactly one shard). Every shard is an ordinary localfs Store,
// so a sharded deployment's on-disk layout is N independent Figure-2
// trees. At least one root is required; the root ORDER is part of the
// store's identity — reopening with the same roots in a different order
// scatters reads to the wrong shards.
func OpenSharded(roots []string) (*Ring, error) {
	return OpenShardedReplicated(roots, 1)
}

// OpenShardedReplicated is OpenSharded with R-way replication: each GOP
// is kept on replicas distinct shards (primary plus ring successors).
// replicas < 1 means 1; replicas must not exceed the number of roots.
// Members are labelled by root path in health rows and error tags.
func OpenShardedReplicated(roots []string, replicas int) (*Ring, error) {
	shards := make([]Backend, len(roots))
	for i, root := range roots {
		s, err := Open(root)
		if err != nil {
			return nil, fmt.Errorf("storage: shard %d: %w", i, err)
		}
		shards[i] = s
	}
	return NewRing("sharded", shards, roots, replicas)
}
