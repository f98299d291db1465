// Package cluster is the multi-collector tier: N collector partitions,
// each a full collector.Server + collector.Store pair owning a region
// of the city grid, glued together by a consistent-hash ring over grid
// cells (so co-located readers share a home collector), a routing layer
// that steers every reader's uplink to its home partition — and, when a
// partition is killed mid-run, deterministically fails its readers over
// to the ring successor — and a query router that answers find-my-car,
// speed, and parking lookups by fanning out to the partitions that can
// hold the answer and merging results under fixed ordering rules.
//
// Determinism contract: with no failover configured, the merged answer
// of every Directory query is identical for any partition count,
// because each reader reports to exactly one partition (per-reader maps
// union disjointly) and per-id "latest sighting" folds under the same
// collector.SightingWins rule a single store applies internally. With a
// failover plan, the cut is keyed to report sequence numbers — never to
// wall-clock — so two runs with the same seed kill, reroute, and
// recover identically.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per partition on the hash ring. More
// vnodes smooth the cell→partition balance; 64 keeps the ring small
// while bounding the largest partition's share at a few percent over
// fair for city-scale cell counts.
const vnodes = 64

// ringPoint is one virtual node: a partition's stake on the hash
// circle.
type ringPoint struct {
	hash uint64
	part int
}

// Ring is a consistent-hash ring mapping string keys (grid cells) to
// partition indices. It is immutable after construction; failover is
// expressed at lookup time by skipping dead partitions, which is
// exactly the classic consistent-hashing property — keys on a dead
// partition move to their ring successor and every other key stays
// put.
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring over nparts partitions with vnodes virtual
// nodes each. The ring is a pure function of nparts: every construction
// with the same partition count hashes keys identically, which is what
// lets two processes agree on routing without coordination.
func NewRing(nparts int) (*Ring, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("cluster: need at least one partition, got %d", nparts)
	}
	r := &Ring{points: make([]ringPoint, 0, nparts*vnodes)}
	for p := 0; p < nparts; p++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("partition-%d/vnode-%d", p, v)), part: p})
		}
	}
	// Total order: equal hashes (vanishingly rare but possible) break on
	// partition index so the ring layout never depends on sort
	// stability.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].part < r.points[j].part
	})
	return r, nil
}

// Owner returns the partition owning key: the first virtual node at or
// clockwise of the key's hash.
func (r *Ring) Owner(key string) int {
	return r.OwnerSkipping(key, nil)
}

// OwnerSkipping returns the partition owning key when the partitions
// for which dead returns true are out of the ring: the walk continues
// clockwise past dead partitions' stakes to the first live one — the
// failover successor. It panics if every partition is dead (the caller
// has no cluster left to route to).
func (r *Ring) OwnerSkipping(key string, dead func(part int) bool) int {
	h := hash64(key)
	n := len(r.points)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		pt := r.points[(start+i)%n]
		if dead == nil || !dead(pt.part) {
			return pt.part
		}
	}
	panic("cluster: no live partition on the ring")
}

// hash64 is FNV-1a over the key, finished with a splitmix64-style
// avalanche mix. FNV alone barely disperses short keys that differ in
// a trailing character ("cell-3" vs "cell-4" land a few units apart),
// which would clump a whole neighborhood of grid cells into one ring
// gap; the finisher spreads them over the full 64-bit circle. Stable
// across processes and Go versions, unlike the runtime's randomized
// map hash.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Stafford variant 13) — a cheap
// bijective avalanche: every input bit flips ~half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
