package timing

import (
	"fmt"
	"math"

	"dscts/internal/arena"
	"dscts/internal/tech"
)

// Network is a staged RC tree: wire/via elements hang off a root driver, and
// buffers open new stages. It is the evaluation backend used by
// internal/eval to compute per-sink latency and skew of a finished clock
// tree, independent of how the tree was constructed.
//
// Node 0 is always the root driver (the clock source). Every other node has
// a parent, a series resistance to its parent and a grounded capacitance.
// A node may carry a buffer: the buffer's input pin terminates the upstream
// stage (only Buffer.InputCap is visible upstream) and its output drives the
// node's children as a new stage.
//
// Storage is struct-of-arrays with index-based references: per-node lanes
// plus one shared buffer table, and a CSR child layout built lazily from the
// parent lane. Reset rewinds every lane in place, so an evaluator that keeps
// a Network in its scratch arena lowers and evaluates trees with no
// steady-state allocation. The CSR lists children in increasing node id —
// exactly the order the old per-node child slices accumulated in — so the
// floating-point summation order of the load accumulation (and with it every
// delay, slew and skew bit) is unchanged.
type Network struct {
	parent []int32
	res    []float64
	capv   []float64
	bufOf  []int32 // index into bufs, -1 = plain wire node
	bufs   []tech.Buffer

	// Lazily (re)built CSR over children: kidList[kidStart[i]:kidStart[i+1]]
	// are i's children in increasing id order.
	kidStart []int32
	kidList  []int32
	kidsOK   bool

	// load/slew are per-node scratch lanes shared by the evaluation entry
	// points; they never escape.
	load []float64
	slew []float64
}

// Reset rewinds the network to a lone root driver (node 0): an ideal source
// whose internal resistance rootRes is applied as a series term on stage 0.
// Every lane keeps its capacity, so a scratch-resident Network relowers
// trees allocation-free. A zero Network needs a Reset before its first
// node.
func (n *Network) Reset(rootRes float64) {
	n.parent = append(n.parent[:0], -1)
	n.res = append(n.res[:0], rootRes)
	n.capv = append(n.capv[:0], 0)
	n.bufOf = append(n.bufOf[:0], -1)
	n.bufs = n.bufs[:0]
	n.kidsOK = false
}

// Grow pre-sizes the node lanes for extra more nodes.
func (n *Network) Grow(extra int) {
	need := len(n.parent) + extra
	if cap(n.parent) >= need {
		return
	}
	n.parent = append(make([]int32, 0, need), n.parent...)
	n.res = append(make([]float64, 0, need), n.res...)
	n.capv = append(make([]float64, 0, need), n.capv...)
	n.bufOf = append(make([]int32, 0, need), n.bufOf...)
}

func (n *Network) add(parent int, res, cap float64, buf int32) int {
	n.checkParent(parent)
	id := len(n.parent)
	n.parent = append(n.parent, int32(parent))
	n.res = append(n.res, res)
	n.capv = append(n.capv, cap)
	n.bufOf = append(n.bufOf, buf)
	n.kidsOK = false
	return id
}

// AddWire appends a node connected to parent through resistance res with
// grounded capacitance cap, returning its id.
func (n *Network) AddWire(parent int, res, cap float64) int {
	return n.add(parent, res, cap, -1)
}

// AddBuffer appends a buffer node at the end of a wire of resistance res.
// The node's grounded cap is the buffer input capacitance; downstream of the
// returned node is a new stage driven by the buffer.
func (n *Network) AddBuffer(parent int, res float64, b tech.Buffer) int {
	bi := int32(len(n.bufs))
	n.bufs = append(n.bufs, b)
	return n.add(parent, res, b.InputCap, bi)
}

func (n *Network) checkParent(parent int) {
	if parent < 0 || parent >= len(n.parent) {
		panic(fmt.Sprintf("timing: invalid parent %d of %d", parent, len(n.parent)))
	}
}

// buildKids (re)derives the CSR child layout from the parent lane by
// counting sort over node ids, which lists every node's children in
// increasing id — the append order of the old per-node slices, preserving
// the load-summation FP order.
func (n *Network) buildKids() {
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

// SourceLoad returns the capacitance the root source drives: the unshielded
// cap of stage 0 (everything reachable from the root without crossing a
// buffer, plus the input caps of the buffers that terminate the stage). The
// hierarchical evaluator uses it to summarize a region subtree by the load
// its root presents to the top tree.
func (n *Network) SourceLoad() float64 {
	return n.stageLoads()[0]
}

// stageLoads computes, for every node, the capacitance visible to its stage
// driver looking downstream from (and including) that node. Buffers shield:
// a buffer node contributes only its input cap upstream. The result is the
// internal scratch lane, valid until the next evaluation call.
func (n *Network) stageLoads() []float64 {
	n.buildKids()
	nn := len(n.parent)
	n.load = arena.Grow(n.load, nn)
	load := n.load
	// Children precede parents nowhere; nodes are appended after their
	// parents, so iterate in reverse for a valid postorder.
	for i := nn - 1; i >= 0; i-- {
		l := n.capv[i]
		for _, k := range n.kidList[n.kidStart[i]:n.kidStart[i+1]] {
			if n.bufOf[k] >= 0 {
				l += n.bufs[n.bufOf[k]].InputCap
			} else {
				l += load[k]
			}
		}
		// A buffer node's own load[] value is what ITS OUTPUT drives:
		// children subtrees only (input cap belongs upstream).
		if n.bufOf[i] >= 0 {
			l -= n.capv[i]
		}
		load[i] = l
	}
	return load
}

// DelaysInto writes the Elmore delay from the root source to every node
// into dst (grown as needed), so arena-backed callers evaluate without
// allocating the result. Buffer nodes report the delay at their OUTPUT
// (input arrival + gate delay); wire nodes report the delay at the node
// itself.
func (n *Network) DelaysInto(dst []float64) []float64 {
	load := n.stageLoads()
	nn := len(n.parent)
	d := arena.GrowZero(dst, nn)
	for i := 1; i < nn; i++ {
		up := d[n.parent[i]]
		// Resistance from parent sees this node's shielded subtree cap.
		visible := load[i]
		bi := n.bufOf[i]
		if bi >= 0 {
			visible = n.bufs[bi].InputCap
		}
		at := up + n.res[i]*visible
		if bi >= 0 {
			at += n.bufs[bi].Delay(load[i])
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

// elmoreSeg returns the per-segment Elmore step used for slew degradation:
// the local RC time constant of the element that feeds node i.
func (n *Network) elmoreSeg(i int, load []float64) float64 {
	visible := load[i]
	if bi := n.bufOf[i]; bi >= 0 {
		visible = n.bufs[bi].InputCap
	}
	return n.res[i] * visible
}

// SlewsInto writes the transition time at every node into dst (grown as
// needed), using PERI propagation (slew_out² = slew_in² + step²) with wire
// step = ln9 · Elmore of the segment, and buffer output slew from the
// supplied table (nil table falls back to a linear model derived from the
// buffer parameters).
func (n *Network) SlewsInto(dst []float64, inputSlew float64, tbl *NLDM) []float64 {
	load := n.stageLoads()
	nn := len(n.parent)
	s := arena.GrowZero(dst, nn)
	s[0] = inputSlew
	const ln9 = 2.1972245773362196
	for i := 1; i < nn; i++ {
		up := s[n.parent[i]]
		step := ln9 * n.elmoreSeg(i, load)
		at := math.Sqrt(up*up + step*step)
		if bi := n.bufOf[i]; bi >= 0 {
			if tbl != nil {
				at = tbl.Slew(at, load[i])
			} else {
				at = defaultOutSlew(n.bufs[bi], load[i])
			}
		}
		s[i] = at
	}
	return s
}

// DelaysNLDMInto writes per-node delays into dst (grown as needed), using
// NLDM gate lookup for buffers (delay depends on input slew and load) and
// Elmore for wires. This is the paper's evaluation mode ("the Elmore delay,
// the slew model and the NLDM for delay computation", Sec. IV-A). The slew
// lane rides in internal scratch.
func (n *Network) DelaysNLDMInto(dst []float64, inputSlew float64, tbl *NLDM) []float64 {
	load := n.stageLoads()
	nn := len(n.parent)
	d := arena.GrowZero(dst, nn)
	n.slew = arena.GrowZero(n.slew, nn)
	s := n.slew
	s[0] = inputSlew
	const ln9 = 2.1972245773362196
	for i := 1; i < nn; i++ {
		visible := load[i]
		bi := n.bufOf[i]
		if bi >= 0 {
			visible = n.bufs[bi].InputCap
		}
		step := n.res[i] * visible
		at := d[n.parent[i]] + step
		sl := math.Sqrt(s[n.parent[i]]*s[n.parent[i]] + (ln9*step)*(ln9*step))
		if bi >= 0 {
			if tbl != nil {
				at += tbl.Delay(sl, load[i])
				sl = tbl.Slew(sl, load[i])
			} else {
				at += n.bufs[bi].Delay(load[i])
				sl = defaultOutSlew(n.bufs[bi], load[i])
			}
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

// defaultOutSlew is the linear fallback output-slew model.
func defaultOutSlew(b tech.Buffer, load float64) float64 {
	const ln9 = 2.1972245773362196
	return ln9 * b.DriveRes * (load + 0.5)
}
