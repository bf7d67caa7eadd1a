package clusterd

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring is a consistent-hash ring over the cluster members. Every member
// contributes vnodes virtual points, each placed at a hash of "<id>#<i>";
// a key is owned by the member whose first virtual point lies at or after
// the key's hash, wrapping at the top. Placement is a pure function of the
// member IDs and the vnode count — every node computes the identical ring
// from the identical seed list, with no coordination — and removing a
// member only reassigns the keys that member owned (the consistent-hash
// property TestRingRebalanceFraction pins).
type Ring struct {
	vnodes int
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVNodes is the virtual-node count per member that serve's ring
// uses, and NewRing's count when given none. 64 points per member keeps the
// ownership imbalance across a small cluster within a few percent while
// the ring stays tiny.
const DefaultVNodes = 64

// NewRing builds the ring over the given member IDs. The input order is
// irrelevant; ties (hash collisions between members, vanishingly unlikely
// with 64-bit points) break by ID so the ring stays a pure function of the
// member set.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, points: make([]ringPoint, 0, len(nodes)*vnodes)}
	var buf [8]byte
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			binary.BigEndian.PutUint64(buf[:], uint64(i))
			h := sha256.New()
			h.Write([]byte(n))
			h.Write([]byte{'#'})
			h.Write(buf[:])
			sum := h.Sum(nil)
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), node: n})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Owner returns the member that owns key. Keys are hashed with the same
// function as the virtual points, so ownership is deterministic across
// nodes and process restarts.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	sum := sha256.Sum256([]byte(key))
	h := binary.BigEndian.Uint64(sum[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Len reports the number of virtual points (members × vnodes).
func (r *Ring) Len() int { return len(r.points) }
