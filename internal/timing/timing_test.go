package timing

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/tech"
)

func asap7() *tech.Tech { return tech.ASAP7() }

// Eq. (2) of the paper, expanded form:
// D = (rb·cb)L² + (rb·Ct + rb·Cd + Rt·cb)L + Rt(3Ct + 2Cd).
func TestEq2Expansion(t *testing.T) {
	tc := asap7()
	back := tc.Back()
	tsv := tc.TSV
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		L := rng.Float64()*500 + 1
		cd := rng.Float64() * 50
		got := NTSVOnWireDelay(back, tsv, L, cd)
		rb, cb := back.UnitRes, back.UnitCap
		rt, ct := tsv.Res, tsv.Cap
		want := rb*cb*L*L + (rb*ct+rb*cd+rt*cb)*L + rt*(3*ct+2*cd)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("Eq2 mismatch L=%v: got %v want %v", L, got, want)
		}
	}
}

func TestBackSideBeatsFrontOnLongWires(t *testing.T) {
	tc := asap7()
	// For long wires the back-side quadratic term rb·cb << rf·cf dominates:
	// moving the wire back (even paying two nTSVs) must win.
	for _, L := range []float64{50, 100, 200, 400} {
		cd := 10.0
		front := WireDelay(tc.Front(), L, cd)
		back := NTSVOnWireDelay(tc.Back(), tc.TSV, L, cd)
		if back >= front {
			t.Errorf("L=%v: back %v >= front %v", L, back, front)
		}
	}
}

func TestSingleNTSVModels(t *testing.T) {
	tc := asap7()
	back, tsv := tc.Back(), tc.TSV
	L, cd := 100.0, 8.0
	// P5 and P6 have one nTSV; their delays must lie strictly below the
	// two-nTSV P4 delay plus one tsv worth of margin, and their caps differ
	// from P4 by exactly one tsv cap.
	p4c := NTSVOnWireCap(back, tsv, L, cd)
	p5c := SingleNTSVDownCap(back, tsv, L, cd)
	p6c := SingleNTSVUpCap(back, tsv, L, cd)
	if math.Abs(p4c-p5c-tsv.Cap) > 1e-12 || math.Abs(p4c-p6c-tsv.Cap) > 1e-12 {
		t.Errorf("cap bookkeeping wrong: p4=%v p5=%v p6=%v tsv=%v", p4c, p5c, p6c, tsv.Cap)
	}
	p4 := NTSVOnWireDelay(back, tsv, L, cd)
	p5 := SingleNTSVDownDelay(back, tsv, L, cd)
	p6 := SingleNTSVUpDelay(back, tsv, L, cd)
	if p5 >= p4 || p6 >= p4 {
		t.Errorf("one-tsv delay should be below two-tsv: p4=%v p5=%v p6=%v", p4, p5, p6)
	}
}

func TestWireDelayCapBasics(t *testing.T) {
	l := tech.Layer{Name: "T", UnitRes: 2, UnitCap: 3}
	if got := WireCap(l, 10, 5); got != 35 {
		t.Errorf("WireCap = %v, want 35", got)
	}
	if got := WireDelay(l, 10, 5); got != 2*10*(3*10+5) {
		t.Errorf("WireDelay = %v", got)
	}
}

func TestNetworkSingleWire(t *testing.T) {
	// root --R=2-- node(C=3) : delay = 2*3 = 6.
	n := NewNetwork(0)
	id := n.AddWire(0, 2, 3)
	d := n.Delays()
	if math.Abs(d[id]-6) > 1e-12 {
		t.Fatalf("delay = %v, want 6", d[id])
	}
}

func TestNetworkChainMatchesHandElmore(t *testing.T) {
	// root -R1- a(C1) -R2- b(C2): d(a)=R1(C1+C2), d(b)=d(a)+R2·C2.
	n := NewNetwork(0)
	a := n.AddWire(0, 1.5, 2)
	b := n.AddWire(a, 2.5, 4)
	d := n.Delays()
	wantA := 1.5 * (2 + 4)
	wantB := wantA + 2.5*4
	if math.Abs(d[a]-wantA) > 1e-12 || math.Abs(d[b]-wantB) > 1e-12 {
		t.Fatalf("chain delays %v/%v want %v/%v", d[a], d[b], wantA, wantB)
	}
}

func TestNetworkBufferShielding(t *testing.T) {
	tc := asap7()
	buf := tc.Buf
	// root -R- buf -0- bigload(C). Upstream resistance must see only the
	// buffer input cap, not the big load.
	n := NewNetwork(0)
	bid := n.AddBuffer(0, 10, buf)
	n.AddWire(bid, 0, 100)
	d := n.Delays()
	want := 10*buf.InputCap + buf.Delay(100)
	if math.Abs(d[bid]-want) > 1e-9 {
		t.Fatalf("buffer output delay %v want %v", d[bid], want)
	}
}

func TestNetworkBranchSkew(t *testing.T) {
	// Symmetric branches must have zero skew; lengthening one branch's
	// resistance must slow only that branch.
	n := NewNetwork(0)
	tr := n.AddWire(0, 1, 1)
	l1 := n.AddWire(tr, 2, 1)
	l2 := n.AddWire(tr, 2, 1)
	d := n.Delays()
	if math.Abs(d[l1]-d[l2]) > 1e-12 {
		t.Fatalf("symmetric skew %v", d[l1]-d[l2])
	}
	n2 := NewNetwork(0)
	tr2 := n2.AddWire(0, 1, 1)
	a := n2.AddWire(tr2, 2, 1)
	b := n2.AddWire(tr2, 5, 1)
	d2 := n2.Delays()
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
	n := NewNetwork(3)
	a := n.AddWire(0, 0, 2)
	d := n.Delays()
	if math.Abs(d[a]-3*2) > 1e-12 {
		t.Fatalf("root res term = %v, want 6", d[a])
	}
}

func TestSlewMonotoneAlongPath(t *testing.T) {
	n := NewNetwork(0)
	a := n.AddWire(0, 1, 2)
	b := n.AddWire(a, 1, 2)
	c := n.AddWire(b, 1, 2)
	s := n.SlewsInto(nil, 5, nil)
	if !(s[a] >= 5 && s[b] >= s[a] && s[c] >= s[b]) {
		t.Fatalf("wire slew must degrade monotonically: %v", s)
	}
}

func TestSlewBufferRestores(t *testing.T) {
	tc := asap7()
	n := NewNetwork(0)
	a := n.AddWire(0, 50, 20) // badly degraded slew
	bid := n.AddBuffer(a, 0, tc.Buf)
	sink := n.AddWire(bid, 1, 1)
	s := n.SlewsInto(nil, 5, nil)
	if s[sink] >= s[a] {
		t.Fatalf("buffer should restore slew: before %v after %v", s[a], s[sink])
	}
}

func TestNLDMInterpolation(t *testing.T) {
	tbl := SynthesizeNLDM(asap7().Buf)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exact grid points must return the stored values.
	for i, s := range tbl.SlewAxis {
		for j, l := range tbl.LoadAxis {
			if got := tbl.Delay(s, l); math.Abs(got-tbl.CellDly[i][j]) > 1e-9 {
				t.Fatalf("grid point (%v,%v) = %v want %v", s, l, got, tbl.CellDly[i][j])
			}
		}
	}
	// Interpolated values must lie between the bracketing corners.
	s, l := 7.5, 3.0
	got := tbl.Delay(s, l)
	lo := math.Min(math.Min(tbl.Delay(5, 2), tbl.Delay(5, 4)), math.Min(tbl.Delay(10, 2), tbl.Delay(10, 4)))
	hi := math.Max(math.Max(tbl.Delay(5, 2), tbl.Delay(5, 4)), math.Max(tbl.Delay(10, 2), tbl.Delay(10, 4)))
	if got < lo-1e-9 || got > hi+1e-9 {
		t.Fatalf("interpolation out of bounds: %v not in [%v,%v]", got, lo, hi)
	}
	// Clamped extrapolation must not explode.
	if d := tbl.Delay(1000, 1000); d < tbl.Delay(160, 64) {
		t.Error("clamping should saturate at the corner")
	}
	if d := tbl.Delay(-5, -5); math.Abs(d-tbl.CellDly[0][0]) > 1e-9 {
		t.Errorf("low clamp = %v want %v", d, tbl.CellDly[0][0])
	}
}

func TestNLDMMonotoneInLoad(t *testing.T) {
	tbl := SynthesizeNLDM(asap7().Buf)
	prev := -1.0
	for l := 0.5; l <= 64; l += 0.5 {
		d := tbl.Delay(10, l)
		if d <= prev {
			t.Fatalf("NLDM delay not increasing in load at %v", l)
		}
		prev = d
	}
}

func TestNLDMValidateErrors(t *testing.T) {
	tbl := SynthesizeNLDM(asap7().Buf)
	bad := *tbl
	bad.SlewAxis = []float64{1}
	if bad.Validate() == nil {
		t.Error("short axis should fail")
	}
	bad2 := *tbl
	bad2.SlewAxis = append([]float64{}, tbl.SlewAxis...)
	bad2.SlewAxis[0], bad2.SlewAxis[1] = bad2.SlewAxis[1], bad2.SlewAxis[0]
	if bad2.Validate() == nil {
		t.Error("unsorted axis should fail")
	}
	bad3 := *tbl
	bad3.CellDly = tbl.CellDly[:2]
	if bad3.Validate() == nil {
		t.Error("row mismatch should fail")
	}
}

func TestDelaysNLDMCloseToElmoreForSmallSlew(t *testing.T) {
	tc := asap7()
	tbl := SynthesizeNLDM(tc.Buf)
	n := NewNetwork(0)
	a := n.AddWire(0, 2, 5)
	bid := n.AddBuffer(a, 1, tc.Buf)
	s := n.AddWire(bid, 2, 3)
	el := n.Delays()
	nl := n.DelaysNLDMInto(nil, 2, tbl)
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
	n := NewNetwork(0)
	n.AddWire(5, 1, 1)
}

// NewNetwork returns a network holding only its root driver.
func NewNetwork(rootRes float64) *Network {
	n := &Network{}
	n.Reset(rootRes)
	return n
}

// Len returns the number of nodes including the root.
func (n *Network) Len() int { return len(n.parent) }

// Delays is DelaysInto into a fresh slice.
func (n *Network) Delays() []float64 { return n.DelaysInto(nil) }

// Parent returns the parent node id of i (-1 for the root).
func (n *Network) Parent(i int) int { return int(n.parent[i]) }
