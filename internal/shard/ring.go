// Package shard is the sharded data plane of the reproduction: it maps
// a keyspace onto N replication groups through a deterministic
// consistent-hash ring and gives clients a request layer that follows
// the ring to the owning group's current primary, transparently
// retrying and redirecting across crash failover, stale-view rejection
// and network-partition windows.
//
// The layering mirrors how partitioned replicated services are built
// over view-synchronous groups: each shard is one membership group
// carrying one replicated state machine (internal/replication over
// internal/membership), the Router republishes shard ownership
// whenever a group installs a view that changes its live set, and the
// Client resolves key → shard → primary per attempt, so an in-flight
// request redirects as soon as a failover view installs.
//
// Delivery contract: tagged requests are exactly-once as far as the
// surviving state lineage reaches — the replication layer's replicated
// dedup table answers retried requests from cache instead of applying
// them twice, and each group's apply history lets a harness assert
// per-key linearizability (Verify). A primary stranded on a minority
// side stops serving once its detector reveals it cannot reach a
// majority (Group.Gate — the stale-view rejection); inside
// the detection window it can still acknowledge requests the merge
// will overwrite, which is why harness scenarios keep clients on the
// majority side of a split (the classic fencing caveat).
//
// Everything is a deterministic function of the cluster description
// and the seed, like the rest of the runtime.
package shard

import (
	"fmt"
	"sort"
)

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashKey hashes a key to its ring position (FNV-1a finished with a
// splitmix64 avalanche — plain FNV clusters badly on short, similar
// labels): stable across runs, platforms and Go versions, so key →
// shard routing is part of the determinism contract.
func hashKey(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// point is one virtual node on the ring.
type point struct {
	h     uint64
	shard int
}

// Ring is a deterministic consistent-hash ring over a fixed number of
// shards. Each shard owns VNodes points; a key belongs to the shard of
// the first point at or after its hash (wrapping). Consistent hashing
// keeps most keys in place when the shard count changes — the property
// future resharding rides on.
type Ring struct {
	points []point
	shards int
}

// DefaultVNodes is the virtual-node count per shard when unspecified:
// enough to spread small keyspaces acceptably while keeping lookup
// tables tiny.
const DefaultVNodes = 16

// NewRing builds a ring over the given shard count. vnodes <= 0
// selects DefaultVNodes.
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("shard: ring needs at least 1 shard (got %d)", shards))
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{shards: shards}
	r.points = make([]point, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{h: hashKey(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shard returns the shard owning key.
func (r *Ring) Shard(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap past the last point
	}
	return r.points[i].shard
}
