// Package ctree defines the clock-tree data structure shared by routing,
// insertion, refinement, baselines and evaluation: a rooted tree whose trunk
// (root → low-level cluster centroids) is binary and whose leaf nets
// (centroid → sinks) are stars, with per-edge double-side wiring annotations
// (side assignment, mid-edge buffers, endpoint nTSVs) and per-node buffer
// annotations (end-point buffers from skew refinement).
package ctree

import (
	"fmt"

	"dscts/internal/geom"
)

// Kind classifies tree nodes.
type Kind int

const (
	// KindRoot is the clock source.
	KindRoot Kind = iota
	// KindSteiner is an internal merge/tapping point of the trunk.
	KindSteiner
	// KindCentroid is a low-level cluster centroid: the boundary between
	// trunk nets and leaf nets.
	KindCentroid
	// KindSink is a clock sink (FF clock pin).
	KindSink
)

func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindSteiner:
		return "steiner"
	case KindCentroid:
		return "centroid"
	case KindSink:
		return "sink"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Side is the metal side of a wire or endpoint.
type Side int

const (
	// Front is the conventional front-side metal stack.
	Front Side = iota
	// Back is the back-side metal stack reached through nTSVs.
	Back
)

func (s Side) String() string {
	if s == Back {
		return "B"
	}
	return "F"
}

// EdgeWiring is the physical realization of the edge from a node to its
// parent, decided by buffer/nTSV insertion. The zero value is a plain
// front-side wire (pattern P2).
type EdgeWiring struct {
	// WireSide is the side the wire body runs on.
	WireSide Side
	// BufMid places one buffer at the edge midpoint (pattern P1, front
	// side only).
	BufMid bool
	// TSVUp places an nTSV at the upstream (root-side) endpoint; only
	// meaningful for back-side wire bodies.
	TSVUp bool
	// TSVDown places an nTSV at the downstream (sink-side) endpoint.
	TSVDown bool
}

// UpSide returns the side of the upstream endpoint implied by the wiring.
func (w EdgeWiring) UpSide() Side {
	if w.WireSide == Back && !w.TSVUp {
		return Back
	}
	return Front
}

// DownSide returns the side of the downstream endpoint implied by the wiring.
func (w EdgeWiring) DownSide() Side {
	if w.WireSide == Back && !w.TSVDown {
		return Back
	}
	return Front
}

// NTSVCount returns the number of nTSVs the wiring uses.
func (w EdgeWiring) NTSVCount() int {
	n := 0
	if w.WireSide == Back {
		if w.TSVUp {
			n++
		}
		if w.TSVDown {
			n++
		}
	}
	return n
}

// BufferCount returns the number of buffers the wiring uses.
func (w EdgeWiring) BufferCount() int {
	if w.BufMid {
		return 1
	}
	return 0
}

// Valid reports whether the combination is one of the six patterns of
// Fig. 6 (buffers only on front wires; nTSVs only on back wires).
func (w EdgeWiring) Valid() bool {
	if w.WireSide == Front {
		return !w.TSVUp && !w.TSVDown
	}
	return !w.BufMid
}

// Node is one vertex of the clock tree.
type Node struct {
	ID       int
	Kind     Kind
	Pos      geom.Point
	Parent   int // -1 for the root
	Children []int

	// Wiring realizes the edge Parent→this node. Unused for the root.
	Wiring EdgeWiring

	// SnakeExtra is detour wirelength (µm) on the edge to the parent
	// beyond the Manhattan distance, introduced by DME delay balancing.
	SnakeExtra float64

	// BufferAtNode inserts a buffer at this node between the incoming
	// edge and the node's children (skew-refinement end-point buffers and
	// baseline leaf buffers).
	BufferAtNode bool

	// SinkIdx is the original sink index for KindSink nodes, else -1.
	SinkIdx int
	// ClusterIdx is the flattened low-cluster index for KindCentroid
	// nodes, else -1.
	ClusterIdx int
}

// Tree is a rooted clock tree. Node 0 is always the root.
type Tree struct {
	Nodes []Node

	// kids is the shared backing store Children slices are carved from
	// (full slice expressions, so an over-long append reallocates to the
	// heap instead of clobbering a neighbour). Without it every node costs
	// one-to-two slice allocations — ~80% of a monolithic synthesis run's
	// allocation count. Unexported, so gob skips it: a decoded tree simply
	// carves fresh blocks if it is ever grown again, while its decoded
	// Children keep their own heap backing.
	kids []int
}

// carve reserves an n-capacity child slice from the shared store.
func (t *Tree) carve(n int) []int {
	if cap(t.kids)-len(t.kids) < n {
		c := 2 * cap(t.kids)
		if c < 256 {
			c = 256
		}
		if c < n {
			c = n
		}
		// Previous blocks stay alive through the slices carved from them.
		t.kids = make([]int, 0, c)
	}
	off := len(t.kids)
	t.kids = t.kids[: off+n : cap(t.kids)]
	return t.kids[off : off : off+n]
}

// ReserveChildren pre-carves capacity for n children of node id. Purely an
// allocation hint for assemblers that know the fan-out up front (e.g. a
// centroid about to receive its cluster's sinks); a no-op once the node has
// children or a reservation.
func (t *Tree) ReserveChildren(id, n int) {
	if p := &t.Nodes[id]; p.Children == nil && n > 0 {
		p.Children = t.carve(n)
	}
}

// New creates a tree containing only the root at pos.
func New(pos geom.Point) *Tree {
	return NewSized(pos, 0)
}

// NewSized creates a tree containing only the root at pos, with capacity
// for roughly `capacity` nodes. The hint is advisory — Add grows past it
// transparently — but a good one (assemblers know their sink and cluster
// counts up front) removes the append-doubling copies of the ~128-byte
// node records, which were the single largest allocation source of a
// monolithic synthesis run.
func NewSized(pos geom.Point, capacity int) *Tree {
	t := &Tree{}
	if capacity > 1 {
		t.Nodes = make([]Node, 0, capacity)
	}
	t.Nodes = append(t.Nodes, Node{
		ID: 0, Kind: KindRoot, Pos: pos, Parent: -1, SinkIdx: -1, ClusterIdx: -1,
	})
	return t
}

// Root returns the root node id (always 0).
func (t *Tree) Root() int { return 0 }

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// Add appends a node of the given kind under parent and returns its id.
func (t *Tree) Add(parent int, kind Kind, pos geom.Point) int {
	if parent < 0 || parent >= len(t.Nodes) {
		panic(fmt.Sprintf("ctree: invalid parent %d", parent))
	}
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{
		ID: id, Kind: kind, Pos: pos, Parent: parent, SinkIdx: -1, ClusterIdx: -1,
	})
	p := &t.Nodes[parent]
	if p.Children == nil {
		p.Children = t.carve(2) // binary merge trees: two children is the norm
	}
	p.Children = append(p.Children, id)
	return id
}

// AddSink appends a sink node carrying its original index.
func (t *Tree) AddSink(parent int, pos geom.Point, sinkIdx int) int {
	id := t.Add(parent, KindSink, pos)
	t.Nodes[id].SinkIdx = sinkIdx
	return id
}

// AddCentroid appends a centroid node carrying its low-cluster index.
func (t *Tree) AddCentroid(parent int, pos geom.Point, clusterIdx int) int {
	id := t.Add(parent, KindCentroid, pos)
	t.Nodes[id].ClusterIdx = clusterIdx
	return id
}

// EdgeLen returns the routed length of the edge from node id to its parent
// (Manhattan distance plus any snaking detour; 0 for the root).
func (t *Tree) EdgeLen(id int) float64 {
	n := &t.Nodes[id]
	if n.Parent < 0 {
		return 0
	}
	return n.Pos.Dist(t.Nodes[n.Parent].Pos) + n.SnakeExtra
}

// PostOrder calls f on every node id, children before parents.
func (t *Tree) PostOrder(f func(id int)) {
	var rec func(int)
	rec = func(id int) {
		for _, c := range t.Nodes[id].Children {
			rec(c)
		}
		f(id)
	}
	rec(t.Root())
}

// PreOrder calls f on every node id, parents before children.
func (t *Tree) PreOrder(f func(id int)) {
	var rec func(int)
	rec = func(id int) {
		f(id)
		for _, c := range t.Nodes[id].Children {
			rec(c)
		}
	}
	rec(t.Root())
}

// Sinks returns the ids of all sink nodes in preorder.
func (t *Tree) Sinks() []int {
	var out []int
	t.PreOrder(func(id int) {
		if t.Nodes[id].Kind == KindSink {
			out = append(out, id)
		}
	})
	return out
}

// Centroids returns the ids of all centroid nodes in preorder.
func (t *Tree) Centroids() []int {
	var out []int
	t.PreOrder(func(id int) {
		if t.Nodes[id].Kind == KindCentroid {
			out = append(out, id)
		}
	})
	return out
}

// TrunkEdges returns the ids of nodes whose incoming edge belongs to the
// trunk (everything at or above centroids: Steiner and centroid nodes).
func (t *Tree) TrunkEdges() []int {
	var out []int
	t.PreOrder(func(id int) {
		k := t.Nodes[id].Kind
		if id != t.Root() && (k == KindSteiner || k == KindCentroid) {
			out = append(out, id)
		}
	})
	return out
}

// Wirelength returns the total Manhattan wirelength of all edges (µm).
func (t *Tree) Wirelength() float64 {
	var wl float64
	for id := 1; id < len(t.Nodes); id++ {
		wl += t.EdgeLen(id)
	}
	return wl
}

// SinkCounts returns, per node id, the number of sinks in its subtree —
// the "fanout of driven sinks" used by baseline [7] and the DSE mode rule.
func (t *Tree) SinkCounts() []int {
	cnt := make([]int, len(t.Nodes))
	t.PostOrder(func(id int) {
		n := &t.Nodes[id]
		if n.Kind == KindSink {
			cnt[id] = 1
		}
		for _, c := range n.Children {
			cnt[id] += cnt[c]
		}
	})
	return cnt
}

// Counts tallies total buffers and nTSVs over edge wirings and node buffers.
func (t *Tree) Counts() (buffers, ntsvs int) {
	for id := 1; id < len(t.Nodes); id++ {
		n := &t.Nodes[id]
		buffers += n.Wiring.BufferCount()
		ntsvs += n.Wiring.NTSVCount()
		if n.BufferAtNode {
			buffers++
		}
	}
	if t.Nodes[t.Root()].BufferAtNode {
		buffers++
	}
	return
}

// SplitTrunkEdges subdivides every trunk edge longer than maxLen into equal
// segments by inserting Steiner nodes along the L-shaped route, so that
// downstream passes (DP insertion) see bounded edge lengths. Leaf nets are
// left untouched. Returns the number of nodes inserted.
func (t *Tree) SplitTrunkEdges(maxLen float64) int {
	if maxLen <= 0 {
		panic("ctree: maxLen must be positive")
	}
	inserted := 0
	// Collect first: we mutate children lists while iterating otherwise.
	var targets []int
	for id := 1; id < len(t.Nodes); id++ {
		k := t.Nodes[id].Kind
		if k != KindSteiner && k != KindCentroid {
			continue
		}
		if t.EdgeLen(id) > maxLen {
			targets = append(targets, id)
		}
	}
	for _, id := range targets {
		parent := t.Nodes[id].Parent
		length := t.EdgeLen(id)
		segs := int(length/maxLen) + 1
		if segs < 2 {
			continue
		}
		from := t.Nodes[parent].Pos // upstream
		to := t.Nodes[id].Pos       // downstream
		snakePer := t.Nodes[id].SnakeExtra / float64(segs)
		// Detach id from parent.
		removeChild(t, parent, id)
		prev := parent
		for s := 1; s < segs; s++ {
			p := PointAlongL(from, to, float64(s)/float64(segs))
			prev = t.Add(prev, KindSteiner, p)
			t.Nodes[prev].SnakeExtra = snakePer
			inserted++
		}
		// Reattach id under the last new node.
		t.Nodes[id].Parent = prev
		t.Nodes[id].SnakeExtra = snakePer
		t.Nodes[prev].Children = append(t.Nodes[prev].Children, id)
	}
	return inserted
}

func removeChild(t *Tree, parent, child int) {
	kids := t.Nodes[parent].Children
	for i, c := range kids {
		if c == child {
			t.Nodes[parent].Children = append(kids[:i], kids[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("ctree: %d is not a child of %d", child, parent))
}

// PointAlongL returns the point a fraction frac of the way from `from` to
// `to` along the L-shaped (horizontal-then-vertical) Manhattan route.
func PointAlongL(from, to geom.Point, frac float64) geom.Point {
	total := from.Dist(to)
	if total == 0 {
		return from
	}
	d := frac * total
	dx := to.X - from.X
	if ax := abs(dx); d <= ax {
		return geom.Pt(from.X+sign(dx)*d, from.Y)
	} else {
		d -= ax
		dy := to.Y - from.Y
		return geom.Pt(to.X, from.Y+sign(dy)*d)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

// Validate checks structural invariants: parent/child consistency, a single
// root, acyclicity, sink/centroid metadata, wiring pattern validity and the
// side-continuity (connectivity) constraint of Sec. III-C1: at every shared
// vertex the downstream side of the incoming edge equals the upstream side
// of every outgoing edge, sinks are reached on the front side, and the root
// is on the front side.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 || t.Nodes[0].Kind != KindRoot || t.Nodes[0].Parent != -1 {
		return fmt.Errorf("ctree: malformed root")
	}
	seen := make([]bool, len(t.Nodes))
	var count int
	var rec func(id int) error
	rec = func(id int) error {
		if seen[id] {
			return fmt.Errorf("ctree: cycle or diamond through node %d", id)
		}
		seen[id] = true
		count++
		n := &t.Nodes[id]
		if n.ID != id {
			return fmt.Errorf("ctree: node %d has ID %d", id, n.ID)
		}
		for _, c := range n.Children {
			if c < 0 || c >= len(t.Nodes) {
				return fmt.Errorf("ctree: child %d of %d out of range", c, id)
			}
			if t.Nodes[c].Parent != id {
				return fmt.Errorf("ctree: child %d of %d has parent %d", c, id, t.Nodes[c].Parent)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return err
	}
	if count != len(t.Nodes) {
		return fmt.Errorf("ctree: %d of %d nodes reachable", count, len(t.Nodes))
	}
	for id := range t.Nodes {
		n := &t.Nodes[id]
		if n.Kind == KindSink && n.SinkIdx < 0 {
			return fmt.Errorf("ctree: sink %d missing SinkIdx", id)
		}
		if n.Kind == KindSink && len(n.Children) > 0 {
			return fmt.Errorf("ctree: sink %d has children", id)
		}
		if id != 0 && !n.Wiring.Valid() {
			return fmt.Errorf("ctree: node %d wiring %+v is not a legal pattern", id, n.Wiring)
		}
	}
	return t.validateSides()
}

// validateSides enforces the connectivity constraint on side types.
func (t *Tree) validateSides() error {
	// Side of each vertex as seen from above (arrival side).
	arrival := make([]Side, len(t.Nodes))
	arrival[0] = Front // clock root pin is on the front side
	var err error
	t.PreOrder(func(id int) {
		if err != nil || id == 0 {
			return
		}
		n := &t.Nodes[id]
		w := n.Wiring
		up := w.UpSide()
		if arrival[n.Parent] != up {
			err = fmt.Errorf("ctree: side mismatch at vertex %d: parent arrival %v, edge upstream %v",
				n.Parent, arrival[n.Parent], up)
			return
		}
		down := w.DownSide()
		if n.BufferAtNode && down != Front {
			err = fmt.Errorf("ctree: buffer at node %d on back side", id)
			return
		}
		if n.Kind == KindSink && down != Front {
			err = fmt.Errorf("ctree: sink %d reached on back side", id)
			return
		}
		if w.BufMid && w.WireSide != Front {
			err = fmt.Errorf("ctree: mid-edge buffer on back side at %d", id)
			return
		}
		arrival[id] = down
	})
	return err
}

// CloneWithout returns a deep copy of the tree that omits every node for
// which drop returns true — together with that node's entire subtree — and
// a map from prior node id to the copy's id (-1 for omitted nodes). Ids are
// renumbered compactly in preorder. Dropping the root is not allowed. This
// is the splice primitive of incremental re-synthesis: the retained tree is
// the prior tree minus its dirty subtrees, and freshly synthesized subtrees
// are grafted back at the surviving attachment points.
func (t *Tree) CloneWithout(drop func(id int) bool) (*Tree, []int) {
	if drop(t.Root()) {
		panic("ctree: cannot drop the root")
	}
	nt := &Tree{Nodes: make([]Node, 0, len(t.Nodes))}
	idMap := make([]int, len(t.Nodes))
	var rec func(id, parent int)
	rec = func(id, parent int) {
		n := t.Nodes[id]
		nid := len(nt.Nodes)
		idMap[id] = nid
		n.ID, n.Parent = nid, parent
		n.Children = nil
		nt.Nodes = append(nt.Nodes, n)
		if parent >= 0 {
			nt.Nodes[parent].Children = append(nt.Nodes[parent].Children, nid)
		}
		for _, c := range t.Nodes[id].Children {
			if drop(c) {
				markDropped(t, c, idMap)
				continue
			}
			rec(c, nid)
		}
	}
	rec(t.Root(), -1)
	return nt, idMap
}

func markDropped(t *Tree, id int, idMap []int) {
	idMap[id] = -1
	for _, c := range t.Nodes[id].Children {
		markDropped(t, c, idMap)
	}
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree { return t.CloneSized(0) }

// CloneSized returns a deep copy whose node lane is pre-allocated for
// capacity total nodes. It is the graft primitive for assemblers that copy
// a small tree and then grow it to a known final size (the stitch stage
// clones the top tree and grafts every region tree into it): growing a
// million-node lane by append-doubling re-zeroes and re-copies ~2x the
// final ~128-byte-per-node array, which dominates cold stitch wall time.
// capacity <= Len() is simply Clone. The copied Children are carved from
// the clone's own shared store.
func (t *Tree) CloneSized(capacity int) *Tree {
	if capacity < len(t.Nodes) {
		capacity = len(t.Nodes)
	}
	nt := &Tree{Nodes: make([]Node, len(t.Nodes), capacity)}
	copy(nt.Nodes, t.Nodes)
	for i := range nt.Nodes {
		if n := len(t.Nodes[i].Children); n > 0 {
			nt.Nodes[i].Children = append(nt.carve(n), t.Nodes[i].Children...)
		}
	}
	return nt
}
