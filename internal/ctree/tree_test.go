package ctree

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dscts/internal/geom"
)

// buildSmall constructs root → steiner → {centroidA → 2 sinks, centroidB → 1 sink}.
func buildSmall() *Tree {
	t := New(geom.Pt(0, 0))
	st := t.Add(0, KindSteiner, geom.Pt(10, 0))
	ca := t.AddCentroid(st, geom.Pt(20, 5), 0)
	cb := t.AddCentroid(st, geom.Pt(20, -5), 1)
	t.AddSink(ca, geom.Pt(22, 6), 0)
	t.AddSink(ca, geom.Pt(23, 4), 1)
	t.AddSink(cb, geom.Pt(21, -6), 2)
	return t
}

func TestBuildAndValidate(t *testing.T) {
	tr := buildSmall()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Sinks()); got != 3 {
		t.Errorf("sinks = %d", got)
	}
	if got := len(tr.Centroids()); got != 2 {
		t.Errorf("centroids = %d", got)
	}
	if got := len(tr.TrunkEdges()); got != 3 {
		t.Errorf("trunk edges = %d, want 3 (steiner + 2 centroids)", got)
	}
}

func TestEdgeLenAndWirelength(t *testing.T) {
	tr := buildSmall()
	// root→st:10, st→ca:15, st→cb:15, leaf edges: 3, 4, 2.
	if got := tr.EdgeLen(1); got != 10 {
		t.Errorf("EdgeLen(st) = %v", got)
	}
	want := 10.0 + 15 + 15 + 3 + 4 + 2
	if got := tr.Wirelength(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Wirelength = %v, want %v", got, want)
	}
	if got := tr.EdgeLen(0); got != 0 {
		t.Errorf("root edge length = %v", got)
	}
}

func TestTraversalOrders(t *testing.T) {
	tr := buildSmall()
	var post, pre []int
	tr.PostOrder(func(id int) { post = append(post, id) })
	tr.PreOrder(func(id int) { pre = append(pre, id) })
	if len(post) != tr.Len() || len(pre) != tr.Len() {
		t.Fatal("traversals must visit every node once")
	}
	if pre[0] != 0 || post[len(post)-1] != 0 {
		t.Error("root order wrong")
	}
	// In postorder every child appears before its parent.
	idx := make(map[int]int)
	for i, id := range post {
		idx[id] = i
	}
	for id := 1; id < tr.Len(); id++ {
		if idx[id] > idx[tr.Nodes[id].Parent] {
			t.Fatalf("postorder: node %d after parent", id)
		}
	}
}

func TestSinkCounts(t *testing.T) {
	tr := buildSmall()
	cnt := tr.SinkCounts()
	if cnt[0] != 3 || cnt[1] != 3 || cnt[2] != 2 || cnt[3] != 1 {
		t.Fatalf("SinkCounts = %v", cnt)
	}
}

func TestWiringSemantics(t *testing.T) {
	cases := []struct {
		w          EdgeWiring
		up, down   Side
		tsvs, bufs int
		valid      bool
	}{
		{EdgeWiring{}, Front, Front, 0, 0, true},                                           // P2
		{EdgeWiring{BufMid: true}, Front, Front, 0, 1, true},                               // P1
		{EdgeWiring{WireSide: Back}, Back, Back, 0, 0, true},                               // P3
		{EdgeWiring{WireSide: Back, TSVUp: true, TSVDown: true}, Front, Front, 2, 0, true}, // P4
		{EdgeWiring{WireSide: Back, TSVDown: true}, Back, Front, 1, 0, true},               // P5
		{EdgeWiring{WireSide: Back, TSVUp: true}, Front, Back, 1, 0, true},                 // P6
		{EdgeWiring{WireSide: Back, BufMid: true}, Back, Back, 0, 1, false},                // illegal
		{EdgeWiring{WireSide: Front, TSVUp: true}, Front, Front, 0, 0, false},              // illegal
	}
	for i, c := range cases {
		if got := c.w.UpSide(); got != c.up {
			t.Errorf("case %d UpSide = %v want %v", i, got, c.up)
		}
		if got := c.w.DownSide(); got != c.down {
			t.Errorf("case %d DownSide = %v want %v", i, got, c.down)
		}
		if got := c.w.NTSVCount(); got != c.tsvs {
			t.Errorf("case %d NTSVCount = %d want %d", i, got, c.tsvs)
		}
		if got := c.w.BufferCount(); got != c.bufs {
			t.Errorf("case %d BufferCount = %d want %d", i, got, c.bufs)
		}
		if got := c.w.Valid(); got != c.valid {
			t.Errorf("case %d Valid = %v want %v", i, got, c.valid)
		}
	}
}

func TestValidateSideContinuity(t *testing.T) {
	tr := buildSmall()
	// P6 on steiner edge: downstream of steiner is Back, but children edges
	// are front-up by default → must fail.
	tr.Nodes[1].Wiring = EdgeWiring{WireSide: Back, TSVUp: true}
	if err := tr.Validate(); err == nil {
		t.Fatal("expected side mismatch error")
	}
	// Fix: children edges start on back and return to front before
	// centroids (P5), which the leaf nets require.
	tr.Nodes[2].Wiring = EdgeWiring{WireSide: Back, TSVDown: true}
	tr.Nodes[3].Wiring = EdgeWiring{WireSide: Back, TSVDown: true}
	if err := tr.Validate(); err != nil {
		t.Fatalf("legal double-side tree rejected: %v", err)
	}
	// Counts: P6 (1 tsv) + 2×P5 (1 tsv each) = 3 nTSVs.
	b, n := tr.Counts()
	if b != 0 || n != 3 {
		t.Fatalf("Counts = %d buffers, %d ntsvs; want 0, 3", b, n)
	}
}

func TestValidateRejectsBackSink(t *testing.T) {
	tr := New(geom.Pt(0, 0))
	c := tr.AddCentroid(0, geom.Pt(5, 0), 0)
	s := tr.AddSink(c, geom.Pt(6, 0), 0)
	tr.Nodes[c].Wiring = EdgeWiring{WireSide: Back, TSVUp: true} // down = Back
	tr.Nodes[s].Wiring = EdgeWiring{WireSide: Back}              // sink reached on back
	if err := tr.Validate(); err == nil {
		t.Fatal("sink on back side must be rejected")
	}
}

func TestCountsWithNodeBuffers(t *testing.T) {
	tr := buildSmall()
	tr.Nodes[2].BufferAtNode = true
	tr.Nodes[1].Wiring = EdgeWiring{BufMid: true}
	b, n := tr.Counts()
	if b != 2 || n != 0 {
		t.Fatalf("Counts = %d/%d, want 2/0", b, n)
	}
}

func TestSplitTrunkEdges(t *testing.T) {
	tr := New(geom.Pt(0, 0))
	c := tr.AddCentroid(0, geom.Pt(100, 40), 0)
	tr.AddSink(c, geom.Pt(101, 41), 0)
	before := tr.Wirelength()
	n := tr.SplitTrunkEdges(30)
	if n == 0 {
		t.Fatal("expected splits")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Total wirelength preserved (split along the L-route).
	if after := tr.Wirelength(); math.Abs(after-before) > 1e-9 {
		t.Fatalf("wirelength changed: %v → %v", before, after)
	}
	// Every trunk edge now within bound.
	for _, id := range tr.TrunkEdges() {
		if tr.EdgeLen(id) > 30+1e-9 {
			t.Fatalf("edge %d still %v long", id, tr.EdgeLen(id))
		}
	}
	// Centroid keeps its metadata and its sink child.
	found := false
	for _, id := range tr.Centroids() {
		if tr.Nodes[id].ClusterIdx == 0 && len(tr.Nodes[id].Children) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("centroid lost its child after splitting")
	}
}

func TestSplitNoopOnShortEdges(t *testing.T) {
	tr := buildSmall()
	before := tr.Len()
	if n := tr.SplitTrunkEdges(1000); n != 0 || tr.Len() != before {
		t.Fatalf("unexpected splits: %d", n)
	}
}

func TestPointAlongL(t *testing.T) {
	from, to := geom.Pt(0, 0), geom.Pt(6, 4)
	if got := PointAlongL(from, to, 0); got != from {
		t.Errorf("frac 0 = %v", got)
	}
	if got := PointAlongL(from, to, 1); !got.Eq(to, 1e-9) {
		t.Errorf("frac 1 = %v", got)
	}
	// Half of total distance 10 is 5: all horizontal (6) not yet done,
	// so point is (5, 0).
	if got := PointAlongL(from, to, 0.5); !got.Eq(geom.Pt(5, 0), 1e-9) {
		t.Errorf("frac 0.5 = %v", got)
	}
	// 0.8 → distance 8 → 6 horizontal + 2 vertical = (6,2).
	if got := PointAlongL(from, to, 0.8); !got.Eq(geom.Pt(6, 2), 1e-9) {
		t.Errorf("frac 0.8 = %v", got)
	}
	if got := PointAlongL(from, from, 0.5); got != from {
		t.Errorf("degenerate = %v", got)
	}
}

// Property: splitting preserves the sink set and the per-subtree sink counts
// at the centroid level.
func TestSplitPreservesSinksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		tr := New(geom.Pt(0, 0))
		nc := rng.Intn(5) + 1
		sinkIdx := 0
		for c := 0; c < nc; c++ {
			cen := tr.AddCentroid(0, geom.Pt(rng.Float64()*500, rng.Float64()*500), c)
			ns := rng.Intn(4) + 1
			for s := 0; s < ns; s++ {
				tr.AddSink(cen, geom.Pt(rng.Float64()*500, rng.Float64()*500), sinkIdx)
				sinkIdx++
			}
		}
		before := len(tr.Sinks())
		tr.SplitTrunkEdges(40)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := len(tr.Sinks()); got != before {
			t.Fatalf("sink count changed %d → %d", before, got)
		}
	}
}

func TestCloneWithout(t *testing.T) {
	tr := New(geom.Pt(0, 0))
	st := tr.Add(0, KindSteiner, geom.Pt(10, 0))
	c0 := tr.AddCentroid(st, geom.Pt(20, 0), 0)
	c1 := tr.AddCentroid(st, geom.Pt(10, 20), 1)
	tr.AddSink(c0, geom.Pt(21, 1), 0)
	tr.AddSink(c0, geom.Pt(22, 0), 1)
	s2 := tr.AddSink(c1, geom.Pt(11, 21), 2)
	tr.Nodes[c1].BufferAtNode = true
	tr.Nodes[s2].SnakeExtra = 3.5

	// Drop cluster 0's leaf net (the children of c0).
	dropSet := make([]bool, tr.Len())
	for _, c := range tr.Nodes[c0].Children {
		dropSet[c] = true
	}
	nt, idMap := tr.CloneWithout(func(id int) bool { return dropSet[id] })
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}
	if nt.Len() != tr.Len()-2 {
		t.Fatalf("clone has %d nodes, want %d", nt.Len(), tr.Len()-2)
	}
	if idMap[c0] < 0 || len(nt.Nodes[idMap[c0]].Children) != 0 {
		t.Fatal("graft point did not survive childless")
	}
	for _, c := range tr.Nodes[c0].Children {
		if idMap[c] != -1 {
			t.Fatalf("dropped node %d mapped to %d", c, idMap[c])
		}
	}
	n := nt.Nodes[idMap[s2]]
	if n.Kind != KindSink || n.SinkIdx != 2 || n.SnakeExtra != 3.5 {
		t.Fatalf("surviving sink annotations lost: %+v", n)
	}
	if !nt.Nodes[idMap[c1]].BufferAtNode {
		t.Fatal("surviving buffer annotation lost")
	}
	// The original is untouched.
	if tr.Len() != 7 || len(tr.Nodes[c0].Children) != 2 {
		t.Fatal("CloneWithout mutated the source tree")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := buildSmall()
	cp := tr.Clone()
	cp.Nodes[1].Wiring = EdgeWiring{WireSide: Back}
	cp.Add(1, KindSteiner, geom.Pt(1, 1))
	if tr.Nodes[1].Wiring.WireSide == Back {
		t.Fatal("clone shares wiring")
	}
	if tr.Len() == cp.Len() {
		t.Fatal("clone shares node slice")
	}
	if len(tr.Nodes[1].Children) == len(cp.Nodes[1].Children) {
		t.Fatal("clone shares children slices")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tr := buildSmall()
	tr.Nodes[2].Parent = 0 // child list of 1 still references 2
	if err := tr.Validate(); err == nil {
		t.Fatal("expected parent/child mismatch")
	}
	// A child id outside the node lane is an error, not an index panic.
	for _, c := range []int{999, -1} {
		bad := buildSmall()
		bad.Nodes[0].Children = append(bad.Nodes[0].Children, c)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("child %d: got %v, want an out-of-range error", c, err)
		}
	}
}
