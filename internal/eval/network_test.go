package eval

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/arena"
	"dscts/internal/tech"
	"dscts/internal/timing"
)

// newNetwork returns a network holding only its root driver, with the
// ASAP7 clock buffer as its buffer cell.
func newNetwork(rootRes float64) *network {
	n := &network{}
	n.reset(tech.ASAP7().Buf, rootRes)
	return n
}

// elmoreSeg returns the per-segment Elmore step used for slew degradation:
// the local RC time constant of the element that feeds node i.
func (n *network) elmoreSeg(i int, load []float64) float64 {
	visible := load[i]
	if n.kind[i] == bufNode {
		visible = n.buf.InputCap
	}
	return n.res[i] * visible
}

// slewsInto is the stand-alone slew pass that delaysNLDMInto's slew lane is
// held to bit for bit: it writes the transition time at every node into dst
// (grown as needed), using PERI propagation (slew_out² = slew_in² + step²)
// with wire step = ln9 · Elmore of the segment, and buffer output slew from
// tbl.
func (n *network) slewsInto(dst []float64, inputSlew float64, tbl *timing.NLDM) []float64 {
	load := n.stageLoads()
	nn := len(n.parent)
	s := arena.GrowZero(dst, nn)
	s[0] = inputSlew
	const ln9 = 2.1972245773362196
	for i := 1; i < nn; i++ {
		up := s[n.parent[i]]
		step := ln9 * n.elmoreSeg(i, load)
		at := math.Sqrt(up*up + step*step)
		if n.kind[i] == bufNode {
			at = tbl.Slew(at, load[i])
		}
		s[i] = at
	}
	return s
}

// slewMismatch runs the slewsInto reference on n and returns the first node
// whose value in n's slew lane differs from it in any bit, or -1.
func slewMismatch(n *network, inputSlew float64, tbl *timing.NLDM) int {
	for i, want := range n.slewsInto(nil, inputSlew, tbl) {
		if math.Float64bits(n.slew[i]) != math.Float64bits(want) {
			return i
		}
	}
	return -1
}

func TestNetworkSingleWire(t *testing.T) {
	// root --R=2-- node(C=3) : delay = 2*3 = 6.
	n := newNetwork(0)
	id := n.addWire(0, 2, 3)
	d := n.delaysInto(nil)
	if math.Abs(d[id]-6) > 1e-12 {
		t.Fatalf("delay = %v, want 6", d[id])
	}
}

func TestNetworkChainMatchesHandElmore(t *testing.T) {
	// root -R1- a(C1) -R2- b(C2): d(a)=R1(C1+C2), d(b)=d(a)+R2·C2.
	n := newNetwork(0)
	a := n.addWire(0, 1.5, 2)
	b := n.addWire(a, 2.5, 4)
	d := n.delaysInto(nil)
	wantA := 1.5 * (2 + 4)
	wantB := wantA + 2.5*4
	if math.Abs(d[a]-wantA) > 1e-12 || math.Abs(d[b]-wantB) > 1e-12 {
		t.Fatalf("chain delays %v/%v want %v/%v", d[a], d[b], wantA, wantB)
	}
}

func TestNetworkBufferShielding(t *testing.T) {
	buf := tech.ASAP7().Buf
	// root -R- buf -0- bigload(C). Upstream resistance must see only the
	// buffer input cap, not the big load.
	n := newNetwork(0)
	bid := n.addBuf(0, 10)
	n.addWire(bid, 0, 100)
	d := n.delaysInto(nil)
	want := 10*buf.InputCap + buf.Delay(100)
	if math.Abs(d[bid]-want) > 1e-9 {
		t.Fatalf("buffer output delay %v want %v", d[bid], want)
	}
}

func TestNetworkBranchSkew(t *testing.T) {
	// Symmetric branches must have zero skew; lengthening one branch's
	// resistance must slow only that branch.
	n := newNetwork(0)
	tr := n.addWire(0, 1, 1)
	l1 := n.addWire(tr, 2, 1)
	l2 := n.addWire(tr, 2, 1)
	d := n.delaysInto(nil)
	if math.Abs(d[l1]-d[l2]) > 1e-12 {
		t.Fatalf("symmetric skew %v", d[l1]-d[l2])
	}
	n2 := newNetwork(0)
	tr2 := n2.addWire(0, 1, 1)
	a := n2.addWire(tr2, 2, 1)
	b := n2.addWire(tr2, 5, 1)
	d2 := n2.delaysInto(nil)
	if d2[b] <= d2[a] {
		t.Fatalf("longer branch not slower: %v vs %v", d2[a], d2[b])
	}
	// Shared trunk: both branch delays include trunk res × total cap.
	wantShared := 1.0 * (1 + 1 + 1)
	if math.Abs((d2[a]-2*1)-wantShared) > 1e-12 {
		t.Errorf("trunk term wrong: %v", d2[a])
	}
}

func TestNetworkRootResistance(t *testing.T) {
	n := newNetwork(3)
	a := n.addWire(0, 0, 2)
	d := n.delaysInto(nil)
	if math.Abs(d[a]-3*2) > 1e-12 {
		t.Fatalf("root res term = %v, want 6", d[a])
	}
}

func TestSlewMonotoneAlongPath(t *testing.T) {
	n := newNetwork(0)
	a := n.addWire(0, 1, 2)
	b := n.addWire(a, 1, 2)
	c := n.addWire(b, 1, 2)
	s := n.slewsInto(nil, 5, timing.SynthesizeNLDM(n.buf))
	if !(s[a] >= 5 && s[b] >= s[a] && s[c] >= s[b]) {
		t.Fatalf("wire slew must degrade monotonically: %v", s)
	}
}

func TestSlewBufferRestores(t *testing.T) {
	n := newNetwork(0)
	a := n.addWire(0, 50, 20) // badly degraded slew
	bid := n.addBuf(a, 0)
	sink := n.addWire(bid, 1, 1)
	s := n.slewsInto(nil, 5, timing.SynthesizeNLDM(n.buf))
	if s[sink] >= s[a] {
		t.Fatalf("buffer should restore slew: before %v after %v", s[a], s[sink])
	}
}

func TestDelaysNLDMCloseToElmoreForSmallSlew(t *testing.T) {
	tbl := timing.SynthesizeNLDM(tech.ASAP7().Buf)
	n := newNetwork(0)
	a := n.addWire(0, 2, 5)
	bid := n.addBuf(a, 1)
	s := n.addWire(bid, 2, 3)
	el := n.delaysInto(nil)
	nl := n.delaysNLDMInto(nil, 2, tbl)
	// With tiny input slew the table reduces to the linear model within the
	// synthesized slew penalty (0.15·slew) and curvature terms.
	if math.Abs(el[s]-nl[s]) > 0.15*20+0.002*64*64 {
		t.Fatalf("NLDM diverges from Elmore: %v vs %v", el[s], nl[s])
	}
	if nl[s] <= 0 || el[s] <= 0 {
		t.Fatal("non-positive delays")
	}
}

func TestNetworkPanicsOnBadParent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n := newNetwork(0)
	n.addWire(5, 1, 1)
}

// randomNetwork builds a random staged RC tree and returns it with the ids
// of its leaf nodes.
func randomNetwork(rng *rand.Rand) (*network, []int32) {
	n := newNetwork(0)
	ids := []int32{0}
	var leaves []int32
	size := rng.Intn(40) + 2
	for i := 0; i < size; i++ {
		parent := ids[rng.Intn(len(ids))]
		switch rng.Intn(4) {
		case 0:
			id := n.addBuf(parent, rng.Float64()*3)
			ids = append(ids, id)
		default:
			id := n.addWire(parent, rng.Float64()*3, rng.Float64()*5)
			ids = append(ids, id)
			leaves = append(leaves, id)
		}
	}
	return n, leaves
}

// Delays are always non-negative and grow monotonically along every
// root-to-node path (resistances and caps are non-negative).
func TestNetworkDelaysMonotoneAlongPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n, _ := randomNetwork(rng)
		d := n.delaysInto(nil)
		for i := 1; i < len(n.parent); i++ {
			if d[i] < 0 {
				t.Fatalf("negative delay %v at node %d", d[i], i)
			}
			p := n.parent[i]
			if d[i]+1e-12 < d[p] {
				t.Fatalf("delay decreased along path: node %d (%v) < parent %d (%v)", i, d[i], p, d[p])
			}
		}
	}
}

// Adding load anywhere never speeds up any node (Elmore monotonicity).
func TestNetworkDelayMonotoneInAddedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n, _ := randomNetwork(rng)
		before := n.delaysInto(nil)
		// Attach extra cap to a random node.
		target := int32(rng.Intn(len(n.parent)))
		n.addWire(target, 0.1, 5)
		after := n.delaysInto(nil)
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
	tbl := timing.SynthesizeNLDM(tech.ASAP7().Buf)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n, _ := randomNetwork(rng)
		el := n.delaysInto(nil)
		nl := n.delaysNLDMInto(nil, 5, tbl)
		for i := range el {
			if nl[i]+1e-9 < el[i] {
				t.Fatalf("NLDM %v below Elmore %v at node %d", nl[i], el[i], i)
			}
		}
	}
}

// Slews are finite, non-negative, and bounded on any random network.
func TestNetworkSlewsSane(t *testing.T) {
	tbl := timing.SynthesizeNLDM(tech.ASAP7().Buf)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n, _ := randomNetwork(rng)
		s := n.slewsInto(nil, 5, tbl)
		for i, v := range s {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) || v > 1e6 {
				t.Fatalf("slew %v at node %d", v, i)
			}
		}
	}
}

// The slew lane delaysNLDMInto leaves in the network equals the slewsInto
// reference bit for bit on the property tests' random networks.
func TestNLDMSlewLaneMatchesReference(t *testing.T) {
	tbl := timing.SynthesizeNLDM(tech.ASAP7().Buf)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n, _ := randomNetwork(rng)
		n.delaysNLDMInto(nil, 5, tbl)
		if i := slewMismatch(n, 5, tbl); i >= 0 {
			t.Fatalf("trial %d: node %d slew lane %v, reference %v", trial, i, n.slew[i], n.slewsInto(nil, 5, tbl)[i])
		}
	}
}

// Buffer shielding: increasing load BEHIND a buffer must not change the
// delay at the buffer's input side beyond the gate itself.
func TestNetworkShieldingProperty(t *testing.T) {
	mk := func(extra float64) (float64, float64) {
		n := newNetwork(0)
		a := n.addWire(0, 2, 3)
		buf := n.addBuf(a, 1)
		n.addWire(buf, 1, 10+extra)
		d := n.delaysInto(nil)
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
