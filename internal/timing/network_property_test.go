package timing

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/tech"
)

// randomNetwork builds a random staged RC tree and returns it with the ids
// of its leaf nodes.
func randomNetwork(rng *rand.Rand, tc *tech.Tech) (*Network, []int) {
	n := NewNetwork(0)
	ids := []int{0}
	var leaves []int
	size := rng.Intn(40) + 2
	for i := 0; i < size; i++ {
		parent := ids[rng.Intn(len(ids))]
		switch rng.Intn(4) {
		case 0:
			id := n.AddBuffer(parent, rng.Float64()*3, tc.Buf)
			ids = append(ids, id)
		default:
			id := n.AddWire(parent, rng.Float64()*3, rng.Float64()*5)
			ids = append(ids, id)
			leaves = append(leaves, id)
		}
	}
	return n, leaves
}

// Delays are always non-negative and grow monotonically along every
// root-to-node path (resistances and caps are non-negative).
func TestNetworkDelaysMonotoneAlongPaths(t *testing.T) {
	tc := tech.ASAP7()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n, _ := randomNetwork(rng, tc)
		d := n.Delays()
		for i := 1; i < n.Len(); i++ {
			if d[i] < 0 {
				t.Fatalf("negative delay %v at node %d", d[i], i)
			}
			p := n.Parent(i)
			if d[i]+1e-12 < d[p] {
				t.Fatalf("delay decreased along path: node %d (%v) < parent %d (%v)", i, d[i], p, d[p])
			}
		}
	}
}

// Adding load anywhere never speeds up any node (Elmore monotonicity).
func TestNetworkDelayMonotoneInAddedLoad(t *testing.T) {
	tc := tech.ASAP7()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n, _ := randomNetwork(rng, tc)
		before := n.Delays()
		// Attach extra cap to a random node.
		target := rng.Intn(n.Len())
		n.AddWire(target, 0.1, 5)
		after := n.Delays()
		for i := range before {
			if after[i]+1e-12 < before[i] {
				t.Fatalf("adding load sped up node %d: %v -> %v", i, before[i], after[i])
			}
		}
	}
}

// NLDM delays dominate Elmore delays on the same network (the synthesized
// table adds slew penalty and curvature, never subtracts).
func TestNetworkNLDMDominatesElmore(t *testing.T) {
	tc := tech.ASAP7()
	tbl := SynthesizeNLDM(tc.Buf)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n, _ := randomNetwork(rng, tc)
		el := n.Delays()
		nl := n.DelaysNLDMInto(nil, 5, tbl)
		for i := range el {
			if nl[i]+1e-9 < el[i] {
				t.Fatalf("NLDM %v below Elmore %v at node %d", nl[i], el[i], i)
			}
		}
	}
}

// Slews are finite, non-negative, and bounded on any random network.
func TestNetworkSlewsSane(t *testing.T) {
	tc := tech.ASAP7()
	tbl := SynthesizeNLDM(tc.Buf)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n, _ := randomNetwork(rng, tc)
		for _, tb := range []*NLDM{nil, tbl} {
			s := n.SlewsInto(nil, 5, tb)
			for i, v := range s {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) || v > 1e6 {
					t.Fatalf("slew %v at node %d (table=%v)", v, i, tb != nil)
				}
			}
		}
	}
}

// Buffer shielding: increasing load BEHIND a buffer must not change the
// delay at the buffer's input side beyond the gate itself.
func TestNetworkShieldingProperty(t *testing.T) {
	tc := tech.ASAP7()
	mk := func(extra float64) (float64, float64) {
		n := NewNetwork(0)
		a := n.AddWire(0, 2, 3)
		buf := n.AddBuffer(a, 1, tc.Buf)
		n.AddWire(buf, 1, 10+extra)
		d := n.Delays()
		return d[a], d[buf]
	}
	a0, b0 := mk(0)
	a1, b1 := mk(50)
	if a0 != a1 {
		t.Fatalf("upstream delay changed with shielded load: %v vs %v", a0, a1)
	}
	if b1 <= b0 {
		t.Fatalf("buffer output delay must grow with its load: %v vs %v", b0, b1)
	}
}
