package eval

import (
	"fmt"
	"math"

	"dscts/internal/arena"
	"dscts/internal/ctree"
	"dscts/internal/tech"
	"dscts/internal/timing"
)

// network is the staged RC tree every evaluation times and the what-if
// model re-times: wire/via elements hang off a root driver, and buffers
// open new stages. lower fills it from a clock tree.
//
// Node 0 is always the root driver (the clock source); its res lane holds
// the driver's internal resistance, applied as a series term on stage 0.
// Every other node has a parent, a series resistance to its parent and a
// grounded capacitance. A buffer node's input pin terminates the upstream
// stage (only buf.InputCap is visible upstream) and its output drives the
// node's children as a new stage. A slot node is a zero-impedance
// pass-through that the what-if model can switch into a buffer; the
// timing passes below treat it as a plain wire.
//
// Storage is struct-of-arrays with index-based references: per-node lanes,
// the per-vertex and per-sink records of the last lowering, and a CSR child
// layout built lazily from the parent lane. reset rewinds every lane in
// place, so pooled networks lower and time trees with no steady-state
// allocation. The CSR lists children in increasing node id, which fixes
// the floating-point summation order of the load accumulation (and with it
// every delay, slew and skew bit).
type network struct {
	parent []int32
	res    []float64
	capv   []float64
	kind   []uint8 // wireNode, bufNode or slotNode
	// buf is the cell of every buffer node: lowering only places the
	// technology's clock buffer.
	buf tech.Buffer

	// netOf maps each tree vertex of the lowered subtree to its node: the
	// buffer output for a node buffer, the slot for a slotted centroid,
	// otherwise the edge's arrival node.
	netOf []int32
	// sinkNet and sinkIdx record each sink's pin node and original sink
	// index, in tree preorder (so sinkNet increases).
	sinkNet []int32
	sinkIdx []int32

	// Lazily (re)built CSR over children: kidList[kidStart[i]:kidStart[i+1]]
	// are i's children in increasing id order.
	kidStart []int32
	kidList  []int32
	kidsOK   bool

	// load/slew are per-node scratch lanes shared by the timing passes;
	// they never escape.
	load []float64
	slew []float64
}

const (
	wireNode uint8 = iota
	bufNode
	slotNode
)

// reset rewinds the network to a lone root driver (node 0) of internal
// resistance rootRes, with b as the cell of every buffer node. Every lane
// keeps its capacity.
func (n *network) reset(b tech.Buffer, rootRes float64) {
	n.parent = append(n.parent[:0], -1)
	n.res = append(n.res[:0], rootRes)
	n.capv = append(n.capv[:0], 0)
	n.kind = append(n.kind[:0], wireNode)
	n.buf = b
	n.sinkNet = n.sinkNet[:0]
	n.sinkIdx = n.sinkIdx[:0]
	n.kidsOK = false
}

// grow pre-sizes the node lanes for extra more nodes.
func (n *network) grow(extra int) {
	need := len(n.parent) + extra
	if cap(n.parent) >= need {
		return
	}
	n.parent = append(make([]int32, 0, need), n.parent...)
	n.res = append(make([]float64, 0, need), n.res...)
	n.capv = append(make([]float64, 0, need), n.capv...)
	n.kind = append(make([]uint8, 0, need), n.kind...)
}

// add appends a node below parent and returns its id.
func (n *network) add(parent int32, res, capv float64, kind uint8) int32 {
	if parent < 0 || int(parent) >= len(n.parent) {
		panic(fmt.Sprintf("eval: invalid network parent %d of %d", parent, len(n.parent)))
	}
	id := int32(len(n.parent))
	n.parent = append(n.parent, parent)
	n.res = append(n.res, res)
	n.capv = append(n.capv, capv)
	n.kind = append(n.kind, kind)
	n.kidsOK = false
	return id
}

// addWire appends a node connected to parent through resistance res with
// grounded capacitance capv.
func (n *network) addWire(parent int32, res, capv float64) int32 {
	return n.add(parent, res, capv, wireNode)
}

// addBuf appends a buffer node at the end of a wire of resistance res. Its
// grounded cap is the buffer input capacitance; downstream of it is a new
// stage driven by the buffer.
func (n *network) addBuf(parent int32, res float64) int32 {
	return n.add(parent, res, n.buf.InputCap, bufNode)
}

// lower is the one place the evaluator turns tree edges into R and C.
// Evaluate, EvaluateViews, SummarizeRegion, TopDelays, DownstreamCap and the
// what-if model all lower through it. It rebuilds n from root's subtree of
// t: the root driver drives stage 0 through the buffer's drive resistance,
// netOf records each tree vertex of the subtree, and the sink records list
// each sink's pin node in preorder. With slots set, every unbuffered
// centroid below root gets a slot node between its edge's arrival and its
// children (the what-if model's toggleable end-point buffers).
//
// Lowering rules per edge (parent → child), following the delay models of
// Sec. II-B: a front/back wire is a series resistance with its cap at the
// downstream node (L-model); a mid-edge buffer splits the edge into two
// halves around a buffer element; an nTSV is a series resistance with its
// cap at its downstream node. A node-level buffer (BufferAtNode) is placed
// between the edge's arrival and the node's children.
func (n *network) lower(t *ctree.Tree, root int, tc *tech.Tech, slots bool) {
	front, back, tsv := tc.Front(), tc.Back(), tc.TSV
	n.reset(tc.Buf, tc.Buf.DriveRes)
	n.grow(t.Len() + t.Len()/2)
	n.netOf = arena.Grow(n.netOf, t.Len())
	n.netOf[root] = 0
	if t.Nodes[root].BufferAtNode {
		n.netOf[root] = n.addBuf(0, 0)
	}
	var below func(id int)
	below = func(id int) {
		for _, c := range t.Nodes[id].Children {
			v := &t.Nodes[c]
			parent := n.netOf[id]
			length := t.EdgeLen(c)
			w := v.Wiring
			var at int32
			switch {
			case v.Kind == ctree.KindSink:
				// Leaf-net star branch: front wire (L-model: wire cap at
				// the far node) terminated by the sink pin cap.
				at = n.addWire(parent, front.UnitRes*length, front.UnitCap*length+tc.SinkCap)
				n.sinkNet = append(n.sinkNet, at)
				n.sinkIdx = append(n.sinkIdx, int32(v.SinkIdx))
			case w.BufMid:
				h := length / 2
				upw := n.addWire(parent, front.UnitRes*h, front.UnitCap*h)
				bufn := n.addBuf(upw, 0)
				at = n.addWire(bufn, front.UnitRes*h, front.UnitCap*h)
			case w.WireSide == ctree.Back:
				at = parent
				if w.TSVUp {
					at = n.addWire(at, tsv.Res, tsv.Cap)
				}
				at = n.addWire(at, back.UnitRes*length, back.UnitCap*length)
				if w.TSVDown {
					at = n.addWire(at, tsv.Res, tsv.Cap)
				}
			default: // plain front wire
				at = n.addWire(parent, front.UnitRes*length, front.UnitCap*length)
			}
			if v.BufferAtNode {
				at = n.addBuf(at, 0)
			} else if slots && v.Kind == ctree.KindCentroid {
				at = n.add(at, 0, 0, slotNode)
			}
			n.netOf[c] = at
			below(c)
		}
	}
	below(root)
}

// buildKids (re)derives the CSR child layout from the parent lane by
// counting sort over node ids, which lists every node's children in
// increasing id.
func (n *network) buildKids() {
	if n.kidsOK {
		return
	}
	nn := len(n.parent)
	n.kidStart = arena.GrowZero(n.kidStart, nn+1)
	n.kidList = arena.Grow(n.kidList, nn-1)
	for i := 1; i < nn; i++ {
		n.kidStart[n.parent[i]+1]++
	}
	for i := 1; i <= nn; i++ {
		n.kidStart[i] += n.kidStart[i-1]
	}
	// kidStart now holds the bucket starts shifted one left; fill and
	// restore in one pass (kidStart[p] advances as p's children land).
	for i := 1; i < nn; i++ {
		p := n.parent[i]
		n.kidList[n.kidStart[p]] = int32(i)
		n.kidStart[p]++
	}
	for i := nn; i > 0; i-- {
		n.kidStart[i] = n.kidStart[i-1]
	}
	n.kidStart[0] = 0
	n.kidsOK = true
}

// sourceLoad returns the capacitance the root source drives: the unshielded
// cap of stage 0 (everything reachable from the root without crossing a
// buffer, plus the input caps of the buffers that terminate the stage). The
// hierarchical evaluator uses it to summarize a region subtree by the load
// its root presents to the top tree.
func (n *network) sourceLoad() float64 {
	return n.stageLoads()[0]
}

// stageLoads computes, for every node, the capacitance visible to its stage
// driver looking downstream from (and including) that node. Buffers shield:
// a buffer node contributes only its input cap upstream. The result is the
// internal scratch lane, valid until the next timing pass.
func (n *network) stageLoads() []float64 {
	n.buildKids()
	nn := len(n.parent)
	n.load = arena.Grow(n.load, nn)
	load := n.load
	// Children precede parents nowhere; nodes are appended after their
	// parents, so iterate in reverse for a valid postorder.
	for i := nn - 1; i >= 0; i-- {
		l := n.capv[i]
		for _, k := range n.kidList[n.kidStart[i]:n.kidStart[i+1]] {
			if n.kind[k] == bufNode {
				l += n.buf.InputCap
			} else {
				l += load[k]
			}
		}
		// A buffer node's own load[] value is what ITS OUTPUT drives:
		// children subtrees only (input cap belongs upstream).
		if n.kind[i] == bufNode {
			l -= n.capv[i]
		}
		load[i] = l
	}
	return load
}

// delaysInto writes the Elmore delay from the root source to every node
// into dst (grown as needed), so pooled callers time without allocating
// the result. Buffer nodes report the delay at their OUTPUT (input arrival
// + gate delay); wire nodes report the delay at the node itself.
func (n *network) delaysInto(dst []float64) []float64 {
	load := n.stageLoads()
	nn := len(n.parent)
	d := arena.GrowZero(dst, nn)
	for i := 1; i < nn; i++ {
		up := d[n.parent[i]]
		// Resistance from parent sees this node's shielded subtree cap.
		visible := load[i]
		isBuf := n.kind[i] == bufNode
		if isBuf {
			visible = n.buf.InputCap
		}
		at := up + n.res[i]*visible
		if isBuf {
			at += n.buf.Delay(load[i])
		}
		d[i] = at
	}
	// Root stage driver resistance: model as extra series res on stage 0.
	if r := n.res[0]; r != 0 {
		// Every node in stage 0 (reachable from root without crossing a
		// buffer) and every node beyond inherits the same source term
		// r × (stage-0 load).
		src := r * load[0]
		for i := 1; i < nn; i++ {
			d[i] += src
		}
	}
	return d
}

// delaysNLDMInto writes per-node delays into dst (grown as needed), using
// NLDM gate lookup for buffers (delay depends on input slew and load) and
// Elmore for wires. This is the paper's evaluation mode ("the Elmore delay,
// the slew model and the NLDM for delay computation", Sec. IV-A). Slews
// propagate by PERI (slew_out² = slew_in² + step²) with wire step = ln9 ·
// the segment's Elmore delay, and buffer output slew from tbl; every node's
// slew stays in n.slew until the next timing pass.
func (n *network) delaysNLDMInto(dst []float64, inputSlew float64, tbl *timing.NLDM) []float64 {
	load := n.stageLoads()
	nn := len(n.parent)
	d := arena.GrowZero(dst, nn)
	n.slew = arena.GrowZero(n.slew, nn)
	s := n.slew
	s[0] = inputSlew
	const ln9 = 2.1972245773362196
	for i := 1; i < nn; i++ {
		visible := load[i]
		isBuf := n.kind[i] == bufNode
		if isBuf {
			visible = n.buf.InputCap
		}
		step := n.res[i] * visible
		at := d[n.parent[i]] + step
		sl := math.Sqrt(s[n.parent[i]]*s[n.parent[i]] + (ln9*step)*(ln9*step))
		if isBuf {
			at += tbl.Delay(sl, load[i])
			sl = tbl.Slew(sl, load[i])
		}
		d[i] = at
		s[i] = sl
	}
	if r := n.res[0]; r != 0 {
		src := r * load[0]
		for i := 1; i < nn; i++ {
			d[i] += src
		}
	}
	return d
}
