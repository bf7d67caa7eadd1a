// Package dme implements Deferred-Merge Embedding clock routing (Boese &
// Kahng [13], Edahiro [14]) on the L-type Elmore model, plus the paper's
// hierarchical variant (Fig. 5(d)): DME over low-level cluster centroids as
// leaves with the corresponding high-level centroid as root, stacked under a
// top-level DME over the high-level centroids.
//
// DME runs in two phases. Bottom-up, each subtree is summarized by a
// *merging segment* — a Manhattan arc of feasible tapping points that all
// realize balanced (zero-skew under Elmore) delay — computed by expanding
// the children's segments by the balance-split edge lengths and
// intersecting. Top-down, a concrete embedding is chosen by projecting each
// merging segment onto the parent's placed tapping point.
package dme

import (
	"fmt"
	"math"

	"dscts/internal/geom"
	"dscts/internal/tech"
)

// Leaf is a DME leaf: a point with the capacitive load and ready delay of
// the subtree it stands for.
type Leaf struct {
	Pos geom.Point
	// Cap is the load the leaf presents to the routing (fF).
	Cap float64
	// Delay is the internal delay already accumulated below the leaf (ps);
	// nonzero when the leaf summarizes a routed subtree.
	Delay float64
}

// Node is one vertex of a routed DME tree.
type Node struct {
	Pos    geom.Point
	Parent int // -1 for the tree root
	// LeafIdx is the index into the input leaves for leaf nodes, -1 for
	// internal (merge) nodes.
	LeafIdx int
	// SnakeExtra is detour wirelength (µm) required on the edge to the
	// parent beyond the Manhattan distance, introduced by delay balancing
	// when one branch is intrinsically slower.
	SnakeExtra float64
}

// Tree is the output of Route: a binary routing tree over the input leaves.
type Tree struct {
	Nodes []Node
	Root  int
	// Cap and Delay summarize the routed tree at its root tapping point:
	// total downstream capacitance and balanced source-to-leaf delay.
	Cap   float64
	Delay float64
}

// Options tunes the router.
type Options struct {
	// Layer supplies the unit parasitics used for delay balancing. The
	// initial routing is balanced on the front-side layer; insertion
	// re-times everything afterwards.
	Layer tech.Layer
	// Snaking enables wire detours to balance intrinsically unequal
	// branches (exact zero-skew trees). The paper's flow leaves it off:
	// buffer insertion re-times the tree anyway, so detour wire would be
	// pure wirelength waste; residual skew is handled by the DP and skew
	// refinement.
	Snaking bool
}

type msNode struct {
	ms      geom.Arc
	cap     float64
	delay   float64
	child   [2]int // indices into the working node list, -1 for leaves
	edgeLen [2]float64
	leafIdx int
}

// Route builds a DME tree over the leaves and embeds it with the root
// tapping point pulled toward rootHint (the parent connection point).
// It returns an error for empty input.
func Route(leaves []Leaf, rootHint geom.Point, opt Options) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("dme: no leaves")
	}
	if opt.Layer.UnitRes <= 0 || opt.Layer.UnitCap <= 0 {
		return nil, fmt.Errorf("dme: invalid layer %+v", opt.Layer)
	}
	// Working set: one msNode per input leaf, then one per merge.
	work := make([]msNode, 0, 2*len(leaves))
	active := make([]int, 0, len(leaves))
	// used marks matched working nodes. A matched node is merged and never
	// active again, so the marks carry across levels without a reset.
	used := make([]bool, 2*len(leaves))
	for i, l := range leaves {
		work = append(work, msNode{
			ms: geom.PointArc(l.Pos), cap: l.Cap, delay: l.Delay,
			child: [2]int{-1, -1}, leafIdx: i,
		})
		active = append(active, i)
	}
	// Bottom-up: pair nearest neighbours level by level.
	for len(active) > 1 {
		pairs, leftover := matchNearest(work, active, used)
		next := make([]int, 0, len(pairs)+1)
		for _, pr := range pairs {
			m := mergeMS(&work[pr[0]], &work[pr[1]], opt.Layer, opt.Snaking)
			m.child = [2]int{pr[0], pr[1]}
			m.leafIdx = -1
			work = append(work, m)
			next = append(next, len(work)-1)
		}
		if leftover >= 0 {
			next = append(next, leftover)
		}
		active = next
	}
	rootIdx := active[0]
	// Top-down embedding.
	t := &Tree{Root: -1, Cap: work[rootIdx].cap, Delay: work[rootIdx].delay}
	t.Root = embed(&t.Nodes, work, rootIdx, -1, rootHint, 0)
	return t, nil
}

// matchNearest greedily pairs active nodes by merging-segment distance,
// marking every matched node in used (indexed by working-node index). With
// an odd count the node left over stays unmarked and is returned to be
// promoted a level.
func matchNearest(work []msNode, active []int, used []bool) (pairs [][2]int, leftover int) {
	leftover = -1
	// Deterministic order: iterate as given; for each unused node pick the
	// nearest unused partner.
	for i, a := range active {
		if used[a] {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for _, b := range active[i+1:] {
			if used[b] {
				continue
			}
			if d := geom.ArcDist(work[a].ms, work[b].ms); d < bestD {
				best, bestD = b, d
			}
		}
		if best < 0 {
			leftover = a
			break
		}
		used[a], used[best] = true, true
		pairs = append(pairs, [2]int{a, best})
	}
	return pairs, leftover
}

// mergeMS merges two subtrees: split the connecting distance so Elmore
// delays balance. When one side is intrinsically slower even at split 0,
// snaking (a wire detour on the fast edge) restores exact balance if
// enabled; otherwise the tap simply sits on the slow branch's segment and
// the residual skew is left for insertion/refinement.
func mergeMS(a, b *msNode, layer tech.Layer, snaking bool) msNode {
	r, c := layer.UnitRes, layer.UnitCap
	d := geom.ArcDist(a.ms, b.ms)
	// delay via a-branch with edge length ea: a.delay + r·ea·(c·ea + a.cap)
	delayA := func(ea float64) float64 { return a.delay + r*ea*(c*ea+a.cap) }
	delayB := func(eb float64) float64 { return b.delay + r*eb*(c*eb+b.cap) }

	var ea, eb float64
	switch {
	case delayA(0)-delayB(d) > 0:
		// a slower even if tap sits on a's segment.
		ea = 0
		if snaking {
			eb = solveExtend(func(e float64) float64 { return delayB(e) - delayA(0) }, d)
		} else {
			eb = d
		}
	case delayB(0)-delayA(d) > 0:
		eb = 0
		if snaking {
			ea = solveExtend(func(e float64) float64 { return delayA(e) - delayB(0) }, d)
		} else {
			ea = d
		}
	default:
		// Balanced split in [0, d]: f is increasing in ea.
		ea = bisect(func(x float64) float64 { return delayA(x) - delayB(d-x) }, 0, d)
		eb = d - ea
	}

	var core geom.Arc
	switch {
	case ea == 0 && eb >= d:
		// Tap on a's segment within distance eb of b (eps guards the
		// eb == d boundary against floating-point noise).
		eps := 1e-9 * (1 + d)
		core = geom.NewTRR(a.ms, 0).Intersect(geom.NewTRR(b.ms, eb+eps)).CoreArc()
	case eb == 0 && ea >= d:
		eps := 1e-9 * (1 + d)
		core = geom.NewTRR(b.ms, 0).Intersect(geom.NewTRR(a.ms, ea+eps)).CoreArc()
	default:
		// ea+eb equals d exactly, so the intersection is degenerate and
		// floating-point noise can make it empty; expand by a hair so the
		// CoreArc midline collapse absorbs the noise instead.
		eps := 1e-9 * (1 + d)
		is := geom.NewTRR(a.ms, ea+eps).Intersect(geom.NewTRR(b.ms, eb+eps))
		if is.Empty() {
			// Still empty (pathological): place the tap on the closest-pair
			// chord at the balance split so delays stay balanced.
			pa, pb := geom.ClosestBetweenArcs(a.ms, b.ms)
			core = geom.PointArc(pa.Lerp(pb, ea/math.Max(d, 1e-12)))
		} else {
			core = is.CoreArc()
		}
	}
	return msNode{
		ms:      core,
		cap:     a.cap + b.cap + c*(ea+eb),
		delay:   math.Max(delayA(ea), delayB(eb)),
		edgeLen: [2]float64{ea, eb},
	}
}

// solveExtend finds e >= d with f(e) = 0 for increasing f with f(d) <= 0.
func solveExtend(f func(float64) float64, d float64) float64 {
	lo, hi := d, math.Max(2*d, 1.0)
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e9 {
			return hi // pathological; delay model will surface it
		}
	}
	return bisect(f, lo, hi)
}

// bisect finds a root of increasing f on [lo, hi].
func bisect(f func(float64) float64, lo, hi float64) float64 {
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// embed places node w (an index into work) given the already-placed parent
// position, appending to nodes and returning the new node's index.
func embed(nodes *[]Node, work []msNode, w, parentIdx int, parentPos geom.Point, edgeLen float64) int {
	n := work[w]
	pos := geom.ClosestOnArc(n.ms, parentPos)
	idx := len(*nodes)
	snake := 0.0
	if parentIdx >= 0 {
		if d := pos.Dist(parentPos); edgeLen > d {
			snake = edgeLen - d
		}
	}
	*nodes = append(*nodes, Node{Pos: pos, Parent: parentIdx, LeafIdx: n.leafIdx, SnakeExtra: snake})
	if n.child[0] >= 0 {
		embed(nodes, work, n.child[0], idx, pos, n.edgeLen[0])
		embed(nodes, work, n.child[1], idx, pos, n.edgeLen[1])
	}
	return idx
}

// Wirelength returns the total routed wirelength including snaking detours.
func (t *Tree) Wirelength() float64 {
	var wl float64
	for i, n := range t.Nodes {
		if n.Parent >= 0 {
			wl += n.Pos.Dist(t.Nodes[n.Parent].Pos) + n.SnakeExtra
		}
		_ = i
	}
	return wl
}
