package baseline

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

func someSinks(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	hot := []geom.Point{{X: 60, Y: 60}, {X: 350, Y: 100}, {X: 150, Y: 380}}
	pts := make([]geom.Point, n)
	for i := range pts {
		h := hot[rng.Intn(len(hot))]
		pts[i] = geom.Pt(math.Abs(h.X+rng.NormFloat64()*45), math.Abs(h.Y+rng.NormFloat64()*45))
	}
	return pts
}

func TestOpenROADTreeValidAndBuffered(t *testing.T) {
	tc := tech.ASAP7()
	sinks := someSinks(500, 3)
	tr, err := OpenROADTree(geom.Pt(200, 0), sinks, tc, OpenROADOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Sinks()); got != len(sinks) {
		t.Fatalf("%d of %d sinks", got, len(sinks))
	}
	bufs, tsvs := tr.Counts()
	if bufs == 0 {
		t.Fatal("baseline tree has no buffers")
	}
	if tsvs != 0 {
		t.Fatal("front-side baseline must have no nTSVs")
	}
	m, err := eval.New(tc, eval.Elmore).Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency <= 0 || m.Skew < 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestOpenROADTreeRespectsMaxCapBudget(t *testing.T) {
	tc := tech.ASAP7()
	sinks := someSinks(800, 7)
	tr, err := OpenROADTree(geom.Pt(0, 0), sinks, tc, OpenROADOptions{ClusterSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Every leaf cluster's shielded load must be within the budget the
	// greedy buffering uses.
	front := tc.Front()
	for _, cid := range tr.Centroids() {
		load := 0.0
		for _, c := range tr.Nodes[cid].Children {
			if tr.Nodes[c].Kind == ctree.KindSink {
				load += front.UnitCap*tr.EdgeLen(c) + tc.SinkCap
			}
		}
		if load > tc.Buf.MaxCap {
			t.Fatalf("leaf cluster %d load %.1f exceeds max cap %.1f", cid, load, tc.Buf.MaxCap)
		}
	}
}

func TestOpenROADTreeErrors(t *testing.T) {
	tc := tech.ASAP7()
	if _, err := OpenROADTree(geom.Pt(0, 0), nil, tc, OpenROADOptions{}); err == nil {
		t.Error("no sinks should error")
	}
	bad := *tc
	bad.SinkCap = 0
	if _, err := OpenROADTree(geom.Pt(0, 0), someSinks(10, 1), &bad, OpenROADOptions{}); err == nil {
		t.Error("bad tech should error")
	}
}

func TestVelosoFlipReducesLatency(t *testing.T) {
	tc := tech.ASAP7()
	sinks := someSinks(600, 11)
	tr, err := OpenROADTree(geom.Pt(200, 0), sinks, tc, OpenROADOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(tc, eval.Elmore)
	before, err := ev.Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	ntsvs, err := Veloso(tr)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ev.Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ntsvs == 0 {
		t.Fatal("Veloso inserted no nTSVs")
	}
	if after.NTSVs != ntsvs {
		t.Fatalf("eval counts %d vs reported %d", after.NTSVs, ntsvs)
	}
	// The whole point of [2]: back-side metal cuts latency.
	if after.Latency >= before.Latency {
		t.Fatalf("latency %v not reduced from %v", after.Latency, before.Latency)
	}
	t.Logf("Veloso: %.1f -> %.1f ps with %d nTSVs", before.Latency, after.Latency, ntsvs)
}

func TestFanoutFlipMonotoneInThreshold(t *testing.T) {
	tc := tech.ASAP7()
	sinks := someSinks(600, 13)
	base, err := OpenROADTree(geom.Pt(200, 0), sinks, tc, OpenROADOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prevTSV := 1 << 30
	for _, th := range []int{20, 100, 400} {
		tr := base.Clone()
		n, err := FanoutFlip(tr, th)
		if err != nil {
			t.Fatal(err)
		}
		// Larger thresholds flip fewer nets → no more nTSVs... the count is
		// not strictly monotone (boundaries shift), allow slack.
		if n > prevTSV+4 {
			t.Fatalf("threshold %d gave %d nTSVs, more than smaller threshold's %d", th, n, prevTSV)
		}
		prevTSV = n
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FanoutFlip(base.Clone(), 0); err == nil {
		t.Error("zero threshold should error")
	}
}

func TestCriticalFlip(t *testing.T) {
	tc := tech.ASAP7()
	sinks := someSinks(600, 17)
	base, err := OpenROADTree(geom.Pt(200, 0), sinks, tc, OpenROADOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := base.Clone()
	n, err := CriticalFlip(tr, tc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no nTSVs inserted")
	}
	ev := eval.New(tc, eval.Elmore)
	before, _ := ev.Evaluate(base)
	after, err := ev.Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if after.Latency >= before.Latency {
		t.Fatalf("critical flip did not help: %v vs %v", after.Latency, before.Latency)
	}
	// Larger fractions flip at least as many paths.
	tr9 := base.Clone()
	n9, err := CriticalFlip(tr9, tc, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if n9 < n {
		t.Logf("note: q=0.9 used %d nTSVs vs q=0.5's %d (boundary effects)", n9, n)
	}
	if _, err := CriticalFlip(base.Clone(), tc, 0); err == nil {
		t.Error("zero fraction should error")
	}
	if _, err := CriticalFlip(base.Clone(), tc, 1.5); err == nil {
		t.Error("fraction > 1 should error")
	}
}

func TestFlipSkipsBufferedEdges(t *testing.T) {
	tc := tech.ASAP7()
	sinks := someSinks(400, 19)
	tr, err := OpenROADTree(geom.Pt(200, 0), sinks, tc, OpenROADOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buffered []int
	for id, n := range tr.Nodes {
		if n.Kind != ctree.KindSink && id != tr.Root() && n.Wiring.BufMid {
			buffered = append(buffered, id)
		}
	}
	if len(buffered) == 0 {
		t.Skip("no buffered trunk edges in this instance")
	}
	if _, err := Veloso(tr); err != nil {
		t.Fatal(err)
	}
	for _, id := range buffered {
		if tr.Nodes[id].Wiring.WireSide == ctree.Back {
			t.Fatalf("buffered edge %d was flipped to the back side", id)
		}
	}
}

func TestFlipMaskLengthError(t *testing.T) {
	tc := tech.ASAP7()
	tr, err := OpenROADTree(geom.Pt(0, 0), someSinks(50, 23), tc, OpenROADOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FlipToBack(tr, make([]bool, 3)); err == nil {
		t.Fatal("bad mask length should error")
	}
}

// Veloso on a tree with interior buffers produces alternating front/back
// regions; every region boundary must carry an nTSV (validated), and the
// nTSV count must equal the number of side transitions.
func TestFlipTSVCountMatchesTransitions(t *testing.T) {
	tc := tech.ASAP7()
	sinks := someSinks(500, 29)
	tr, err := OpenROADTree(geom.Pt(200, 0), sinks, tc, OpenROADOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Veloso(tr)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for id := 1; id < tr.Len(); id++ {
		count += tr.Nodes[id].Wiring.NTSVCount()
	}
	if count != n {
		t.Fatalf("wiring has %d nTSVs, Veloso reported %d", count, n)
	}
}
