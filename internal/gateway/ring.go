package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"

	"remac/internal/fault"
)

// ring is a consistent-hash ring over shard indices: each shard owns
// vnodes virtual points, and a routing key maps to the first point at or
// clockwise after its hash. Virtual nodes smooth the per-shard key share
// (the classic ~1/sqrt(vnodes) imbalance bound), and the seed perturbs
// every point so tests can exercise different placements — and a future
// deployment can re-roll placement without code changes — while any fixed
// seed keeps placement fully deterministic across processes.
//
// Routing on dataset@version (see Gateway.routeKey) is what makes shard
// scale-out preserve cache locality: every query touching one dataset
// version lands on the same home shard, so that shard's plan cache,
// intermediate cache and MQO batches see the whole overlapping stream
// instead of 1/N of it.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
	seed   uint64
}

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the shard that owns it.
type ringPoint struct {
	hash  uint64
	shard int
}

// newRing builds the ring for shards instances with vnodes virtual points
// each. shards and vnodes must be positive.
func newRing(shards, vnodes int, seed uint64) *ring {
	r := &ring{shards: shards, seed: seed, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := hashKey(seed, fmt.Sprintf("shard%d/vnode%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break deterministically by shard.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// hashKey is FNV-64a over the seed bytes followed by the key bytes, run
// through the SplitMix64 finalizer (fault.Mix64). Raw FNV clusters badly
// on the short, near-identical strings this ring hashes (vnode labels,
// "key-%d"-style dataset ids): correlated inputs land in correlated hash
// regions and whole shards end up owning no keys. The finalizer's
// avalanche breaks that correlation while keeping the function
// deterministic.
func hashKey(seed uint64, key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	return fault.Mix64(h.Sum64())
}

// order returns the full preference order for key: the home shard (owner
// of the first point clockwise from the key's hash), then each further
// distinct shard in ring order. Spill-over routing walks this list, so a
// key displaced by an overloaded home always lands on the same alternate
// across the fleet.
func (r *ring) order(key string) []int {
	h := hashKey(r.seed, key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.shards)
	seen := make([]bool, r.shards)
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
