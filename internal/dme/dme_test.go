package dme

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/cluster"
	"dscts/internal/ctree"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

func frontLayer() tech.Layer { return tech.ASAP7().Front() }

func TestRouteErrors(t *testing.T) {
	if _, err := Route(nil, geom.Pt(0, 0), Options{Layer: frontLayer(), Snaking: true}); err == nil {
		t.Error("empty leaves should error")
	}
	if _, err := Route([]Leaf{{Pos: geom.Pt(0, 0)}}, geom.Pt(0, 0), Options{}); err == nil {
		t.Error("zero layer should error")
	}
}

func TestRouteSingleLeaf(t *testing.T) {
	l := []Leaf{{Pos: geom.Pt(5, 5), Cap: 2}}
	tr, err := Route(l, geom.Pt(0, 0), Options{Layer: frontLayer(), Snaking: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 || tr.Nodes[tr.Root].LeafIdx != 0 {
		t.Fatalf("single-leaf tree malformed: %+v", tr.Nodes)
	}
	if tr.Cap != 2 {
		t.Errorf("Cap = %v", tr.Cap)
	}
}

func TestRouteSymmetricPairZeroSkew(t *testing.T) {
	leaves := []Leaf{
		{Pos: geom.Pt(0, 0), Cap: 1},
		{Pos: geom.Pt(10, 0), Cap: 1},
	}
	tr, err := Route(leaves, geom.Pt(5, 20), Options{Layer: frontLayer(), Snaking: true})
	if err != nil {
		t.Fatal(err)
	}
	d := tr.LeafDelays(frontLayer(), leaves)
	if math.Abs(d[0]-d[1]) > 1e-9 {
		t.Fatalf("skew = %v", d[0]-d[1])
	}
	// The tap must sit at Manhattan distance 5 from both leaves.
	root := tr.Nodes[tr.Root].Pos
	if math.Abs(root.Dist(geom.Pt(0, 0))-5) > 1e-6 {
		t.Errorf("tap %v not equidistant", root)
	}
}

// The central DME property: for any leaf set, caps and ready delays, the
// routed tree has (near-)zero Elmore skew at the root tapping point.
func TestRouteZeroSkewProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(40) + 2
		leaves := make([]Leaf, n)
		for i := range leaves {
			leaves[i] = Leaf{
				Pos:   geom.Pt(rng.Float64()*400, rng.Float64()*400),
				Cap:   rng.Float64()*5 + 0.5,
				Delay: rng.Float64() * 10,
			}
		}
		tr, err := Route(leaves, geom.Pt(200, 200), Options{Layer: frontLayer(), Snaking: true})
		if err != nil {
			t.Fatal(err)
		}
		d := tr.LeafDelays(frontLayer(), leaves)
		if len(d) != n {
			t.Fatalf("trial %d: %d of %d leaves have delays", trial, len(d), n)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range d {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi-lo > 1e-6*(1+hi) {
			t.Fatalf("trial %d (n=%d): skew %v (latency %v)", trial, n, hi-lo, hi)
		}
	}
}

func TestRouteSnakingBalancesAsymmetricDelays(t *testing.T) {
	// Leaf 0 carries a huge ready delay: balancing must snake the other
	// branch rather than produce negative lengths.
	leaves := []Leaf{
		{Pos: geom.Pt(0, 0), Cap: 1, Delay: 50},
		{Pos: geom.Pt(4, 0), Cap: 1, Delay: 0},
	}
	tr, err := Route(leaves, geom.Pt(2, 0), Options{Layer: frontLayer(), Snaking: true})
	if err != nil {
		t.Fatal(err)
	}
	d := tr.LeafDelays(frontLayer(), leaves)
	if math.Abs(d[0]-d[1]) > 1e-6*(1+d[0]) {
		t.Fatalf("snaking failed to balance: %v vs %v", d[0], d[1])
	}
	// Wirelength must exceed the plain span (detour present).
	if tr.Wirelength() <= 4 {
		t.Fatalf("expected snaking wirelength > 4, got %v", tr.Wirelength())
	}
}

func TestRouteAllLeavesPresent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	leaves := make([]Leaf, 57) // odd count exercises leftover promotion
	for i := range leaves {
		leaves[i] = Leaf{Pos: geom.Pt(rng.Float64()*100, rng.Float64()*100), Cap: 1}
	}
	tr, err := Route(leaves, geom.Pt(0, 0), Options{Layer: frontLayer(), Snaking: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, n := range tr.Nodes {
		if n.LeafIdx >= 0 {
			if seen[n.LeafIdx] {
				t.Fatalf("leaf %d duplicated", n.LeafIdx)
			}
			seen[n.LeafIdx] = true
		}
	}
	if len(seen) != len(leaves) {
		t.Fatalf("%d of %d leaves embedded", len(seen), len(leaves))
	}
}

func TestRouteDeterministic(t *testing.T) {
	leaves := []Leaf{
		{Pos: geom.Pt(0, 0), Cap: 1}, {Pos: geom.Pt(10, 3), Cap: 1},
		{Pos: geom.Pt(4, 9), Cap: 1}, {Pos: geom.Pt(8, 8), Cap: 1},
	}
	a, _ := Route(leaves, geom.Pt(0, 0), Options{Layer: frontLayer(), Snaking: true})
	b, _ := Route(leaves, geom.Pt(0, 0), Options{Layer: frontLayer(), Snaking: true})
	if len(a.Nodes) != len(b.Nodes) || a.Wirelength() != b.Wirelength() {
		t.Fatal("routing must be deterministic")
	}
}

func clumpedSinks(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	hot := []geom.Point{{X: 80, Y: 80}, {X: 700, Y: 120}, {X: 250, Y: 760}, {X: 820, Y: 800}}
	pts := make([]geom.Point, n)
	for i := range pts {
		h := hot[rng.Intn(len(hot))]
		pts[i] = geom.Pt(math.Abs(h.X+rng.NormFloat64()*50), math.Abs(h.Y+rng.NormFloat64()*50))
	}
	return pts
}

func TestHierarchicalRouteBuildsValidTree(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clumpedSinks(800, 3)
	d, err := cluster.DualLevel(sinks, cluster.DualOptions{HighSize: 200, LowSize: 25, Seed: 1, MaxIter: 25})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := HierarchicalRoute(geom.Pt(450, 450), sinks, d, tc, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Sinks()); got != len(sinks) {
		t.Fatalf("%d of %d sinks in tree", got, len(sinks))
	}
	if got := len(tr.Centroids()); got != d.NumLow() {
		t.Fatalf("%d centroids, want %d", got, d.NumLow())
	}
	// Every sink node sits under a centroid carrying its cluster.
	for _, sid := range tr.Sinks() {
		p := tr.Nodes[sid].Parent
		if tr.Nodes[p].Kind != 2 /* KindCentroid */ {
			t.Fatalf("sink %d parent kind %v", sid, tr.Nodes[p].Kind)
		}
	}
}

func TestHierarchicalRouteSplitsEdges(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clumpedSinks(300, 7)
	d, err := cluster.DualLevel(sinks, cluster.DualOptions{HighSize: 100, LowSize: 20, Seed: 2, MaxIter: 25})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := HierarchicalRoute(geom.Pt(400, 400), sinks, d, tc, HierOptions{MaxTrunkEdge: 25})
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range tr.Nodes {
		if n.Kind == ctree.KindSink || id == tr.Root() {
			continue // only trunk edges are split
		}
		if tr.EdgeLen(id) > 25+1e-9 {
			t.Fatalf("trunk edge %d length %v exceeds bound", id, tr.EdgeLen(id))
		}
	}
}

func TestFlatRouteBuildsValidTree(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clumpedSinks(400, 11)
	d, err := cluster.DualLevel(sinks, cluster.DualOptions{HighSize: 150, LowSize: 20, Seed: 3, MaxIter: 25})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := FlatRoute(geom.Pt(400, 400), sinks, d, tc, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Sinks()); got != len(sinks) {
		t.Fatalf("%d of %d sinks", got, len(sinks))
	}
}

// The paper's motivation for the hierarchy (Fig. 5): on imbalanced sink
// distributions, hierarchical DME should not lose to plain matching DME on
// wirelength by any meaningful margin (it usually wins).
func TestHierVsFlatWirelength(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clumpedSinks(1200, 19)
	d, err := cluster.DualLevel(sinks, cluster.DualOptions{HighSize: 300, LowSize: 25, Seed: 4, MaxIter: 25})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := HierarchicalRoute(geom.Pt(450, 450), sinks, d, tc, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := FlatRoute(geom.Pt(450, 450), sinks, d, tc, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hw, fw := hier.Wirelength(), flat.Wirelength()
	if hw > fw*1.15 {
		t.Fatalf("hierarchical WL %v much worse than flat %v", hw, fw)
	}
	t.Logf("hier WL %.0f vs flat WL %.0f", hw, fw)
}

func TestWirelengthIncludesSnake(t *testing.T) {
	leaves := []Leaf{
		{Pos: geom.Pt(0, 0), Cap: 1, Delay: 100},
		{Pos: geom.Pt(2, 0), Cap: 1},
	}
	tr, err := Route(leaves, geom.Pt(1, 0), Options{Layer: frontLayer(), Snaking: true})
	if err != nil {
		t.Fatal(err)
	}
	var snake float64
	for _, n := range tr.Nodes {
		snake += n.SnakeExtra
	}
	if snake <= 0 {
		t.Fatal("expected snaking")
	}
	if tr.Wirelength() < snake {
		t.Fatal("wirelength must include snake detours")
	}
}

func TestRouteNoSnakingWhenDisabled(t *testing.T) {
	leaves := []Leaf{
		{Pos: geom.Pt(0, 0), Cap: 1, Delay: 100},
		{Pos: geom.Pt(2, 0), Cap: 1},
	}
	tr, err := Route(leaves, geom.Pt(1, 0), Options{Layer: frontLayer()})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes {
		if n.SnakeExtra > 1e-6 {
			t.Fatalf("snake %v with snaking disabled", n.SnakeExtra)
		}
	}
	// Wirelength equals the plain span: the tap sits on the slow leaf.
	if tr.Wirelength() > 2+1e-6 {
		t.Fatalf("wirelength %v > 2", tr.Wirelength())
	}
}

// LeafDelays computes, for verification, the Elmore delay from the root
// tapping point to every leaf on the given layer (L-model, including snake
// detours and each leaf's own Cap and ready Delay). Returns a map from leaf
// index to delay.
func (t *Tree) LeafDelays(layer tech.Layer, leaves []Leaf) map[int]float64 {
	r, c := layer.UnitRes, layer.UnitCap
	// Downstream cap per node, leaves seeded with their loads.
	caps := make([]float64, len(t.Nodes))
	order := t.postOrder()
	for _, i := range order {
		n := t.Nodes[i]
		if n.LeafIdx >= 0 {
			caps[i] += leaves[n.LeafIdx].Cap
		}
		if n.Parent >= 0 {
			l := t.Nodes[i].Pos.Dist(t.Nodes[n.Parent].Pos) + n.SnakeExtra
			caps[n.Parent] += caps[i] + c*l
		}
	}
	out := make(map[int]float64)
	delay := make([]float64, len(t.Nodes))
	for i := len(order) - 1; i >= 0; i-- { // reverse postorder = preorder
		idx := order[i]
		n := t.Nodes[idx]
		if n.Parent >= 0 {
			l := n.Pos.Dist(t.Nodes[n.Parent].Pos) + n.SnakeExtra
			delay[idx] = delay[n.Parent] + r*l*(c*l+caps[idx])
		}
		if n.LeafIdx >= 0 {
			out[n.LeafIdx] = delay[idx] + leaves[n.LeafIdx].Delay
		}
	}
	return out
}

func (t *Tree) postOrder() []int {
	kids := make([][]int, len(t.Nodes))
	for i, n := range t.Nodes {
		if n.Parent >= 0 {
			kids[n.Parent] = append(kids[n.Parent], i)
		}
	}
	var order []int
	var rec func(int)
	rec = func(i int) {
		for _, k := range kids[i] {
			rec(k)
		}
		order = append(order, i)
	}
	rec(t.Root)
	return order
}
