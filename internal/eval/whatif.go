package eval

import (
	"fmt"
	"math"
	"slices"

	"dscts/internal/arena"
	"dscts/internal/ctree"
	"dscts/internal/tech"
)

// WhatIf answers "what would latency and skew be if an end-point buffer
// were added at this centroid?" without rebuilding the RC network or
// allocating per query. It exists for the skew-refinement loop, whose
// accept/reject trials dominated the end-to-end synthesis runtime when
// each trial re-ran a full Evaluate (tree validation, network
// construction and a sink-delay map per attempt).
//
// The network is lowered once, with a zero-impedance pass-through "slot"
// node at every centroid that could receive an end-point buffer. The model
// keeps the committed state evaluated: every node's load and delay, and the
// running maximum and minimum of sink arrival times in sink-record order,
// from the front and from the back. Building the model computes them with
// one O(n) pass; Commit flips a slot and refreshes them.
//
// A trial (Trial) switches one more slot on and costs O(affected subtree),
// not O(n): it re-sums the loads of the slot's ancestors up to the nearest
// node b that acts as a buffer (or the root driver), re-times only b's
// subtree, and combines those sinks with the committed extrema of all
// others. It returns exactly, bit for bit, what the full pass evaluating the
// whole network would (TestTrialMatchesFullPass), for three reasons:
//
//   - Ids are assigned in tree pre-order, so every subtree is the
//     contiguous id range [i, end[i]).
//   - A buffer presents its fixed input cap to its parent whatever it
//     drives, so nothing above b changes, and everything outside [b, end[b])
//     keeps its committed delay. Each re-timed load is re-summed over its
//     children in the full pass's order (decreasing id), and each delay uses
//     the full pass's expression, so the same roundings happen.
//   - Max and min are exact, so combining the re-timed sinks' extrema with
//     the committed extrema outside the range rounds nothing.
//
// Trial and Commit re-time in one workspace embedded in the model, so a
// model serves one caller at a time.
type WhatIf struct {
	parent    []int32
	end       []int32 // end of each node's pre-order subtree range
	res       []float64
	capv      []float64
	kind      []uint8 // wire / fixed buffer / toggleable slot
	committed []bool  // slot state (committed buffers)

	buf     tech.Buffer
	rootRes float64

	sinkNet []int32 // network node of each sink record, increasing
	sinkIdx []int32 // original sink index of each sink record
	slotOf  map[int]int32

	// The committed state: node loads and delays, the root driver's
	// source term, and sink-arrival extrema by sink record, pre[k] over
	// records [0, k) and suf[k] over [k, K).
	load, d  []float64
	src      float64
	pre, suf []extent
	sc       whatIfScratch // Trial's and Commit's re-timing workspace

	netOf   []int32   // lowering scratch, reused across builds
	sinkDst []float64 // per-sink delay scratch (EvaluateWhatIf)
}

const (
	wiWire uint8 = iota
	wiBuf
	wiSlot
)

// extent is the lowest and highest of a set of sink arrival times.
type extent struct{ lo, hi float64 }

var emptyExtent = extent{lo: math.Inf(1), hi: math.Inf(-1)}

func (e extent) with(v float64) extent { return e.join(extent{v, v}) }

func (e extent) join(o extent) extent {
	if o.lo < e.lo {
		e.lo = o.lo
	}
	if o.hi > e.hi {
		e.hi = o.hi
	}
	return e
}

// whatIfScratch is the re-timing workspace: a trial's delay lane plus the
// re-summed loads of the trial slot's ancestors.
type whatIfScratch struct {
	d     []float64 // trial delays; a trial writes only its re-timed range
	kids  []int32   // children of the ancestor being re-summed
	path  []int32   // the trial slot's ancestors, bottom-up, ending at b
	pload []float64 // their loads with the trial slot switched on
}

// NewWhatIf lowers the annotated tree once, mirroring BuildNetwork's RC
// rules, and plants a toggleable buffer slot at every centroid that does
// not already carry a node buffer. The tree must already be valid (the
// caller's initial Evaluate checks that). The model (lanes, slot map and
// workspace) is recycled from a package pool; hand it back with
// ReleaseWhatIf when done.
func NewWhatIf(t *ctree.Tree, tc *tech.Tech) *WhatIf {
	w := whatIfPool.Get()
	if w == nil {
		w = &WhatIf{slotOf: make(map[int]int32)}
	}
	w.build(t, tc)
	return w
}

// ReleaseWhatIf returns a model obtained from NewWhatIf to its pool. The
// caller must not use w afterwards.
func ReleaseWhatIf(w *WhatIf) { whatIfPool.Put(w) }

// build (re)lowers the tree into the model, rewinding every lane.
func (w *WhatIf) build(t *ctree.Tree, tc *tech.Tech) {
	front, back, tsv, buf := tc.Front(), tc.Back(), tc.TSV, tc.Buf
	w.buf, w.rootRes = buf, buf.DriveRes
	w.parent = w.parent[:0]
	w.res = w.res[:0]
	w.capv = w.capv[:0]
	w.kind = w.kind[:0]
	w.sinkNet = w.sinkNet[:0]
	w.sinkIdx = w.sinkIdx[:0]
	clear(w.slotOf)
	w.addNode(-1, 0, 0, wiWire) // node 0: root driver
	w.netOf = arena.Grow(w.netOf, t.Len())
	netOf := w.netOf
	netOf[t.Root()] = 0
	if t.Nodes[t.Root()].BufferAtNode {
		netOf[t.Root()] = w.addNode(0, 0, buf.InputCap, wiBuf)
	}
	t.PreOrder(func(id int) {
		if id == t.Root() {
			return
		}
		n := &t.Nodes[id]
		parent := netOf[n.Parent]
		length := t.EdgeLen(id)
		wr := n.Wiring
		var at int32
		switch {
		case n.Kind == ctree.KindSink:
			at = w.addNode(parent, front.UnitRes*length, front.UnitCap*length+tc.SinkCap, wiWire)
			w.sinkNet = append(w.sinkNet, at)
			w.sinkIdx = append(w.sinkIdx, int32(n.SinkIdx))
		case wr.BufMid:
			h := length / 2
			upw := w.addNode(parent, front.UnitRes*h, front.UnitCap*h, wiWire)
			bufn := w.addNode(upw, 0, buf.InputCap, wiBuf)
			at = w.addNode(bufn, front.UnitRes*h, front.UnitCap*h, wiWire)
		case wr.WireSide == ctree.Back:
			cur := parent
			if wr.TSVUp {
				cur = w.addNode(cur, tsv.Res, tsv.Cap, wiWire)
			}
			cur = w.addNode(cur, back.UnitRes*length, back.UnitCap*length, wiWire)
			if wr.TSVDown {
				cur = w.addNode(cur, tsv.Res, tsv.Cap, wiWire)
			}
			at = cur
		default: // plain front wire
			at = w.addNode(parent, front.UnitRes*length, front.UnitCap*length, wiWire)
		}
		switch {
		case n.BufferAtNode:
			at = w.addNode(at, 0, buf.InputCap, wiBuf)
		case n.Kind == ctree.KindCentroid:
			at = w.addNode(at, 0, 0, wiSlot)
			w.slotOf[id] = at
		}
		netOf[id] = at
	})
	n := len(w.parent)
	w.committed = arena.GrowZero(w.committed, n)
	// Children have larger ids than their parents, so one backward sweep
	// closes every subtree range.
	w.end = arena.Grow(w.end, n)
	for i := range w.end {
		w.end[i] = int32(i + 1)
	}
	for i := n - 1; i >= 1; i-- {
		if p := w.parent[i]; w.end[i] > w.end[p] {
			w.end[p] = w.end[i]
		}
	}
	w.load = arena.Grow(w.load, n)
	w.d = arena.Grow(w.d, n)
	w.sc.d = arena.Grow(w.sc.d, n)
	w.evalFull(-1, w.load, w.d)
	w.src = w.rootRes * w.load[0]
	w.refreshExtents()
}

func (w *WhatIf) addNode(parent int32, res, capv float64, kind uint8) int32 {
	id := int32(len(w.parent))
	w.parent = append(w.parent, parent)
	w.res = append(w.res, res)
	w.capv = append(w.capv, capv)
	w.kind = append(w.kind, kind)
	return id
}

// SlotOf returns the slot node of a centroid tree node, or -1 when the
// centroid already carries a fixed buffer.
func (w *WhatIf) SlotOf(treeNode int) int32 {
	if s, ok := w.slotOf[treeNode]; ok {
		return s
	}
	return -1
}

// Committed reports whether the slot is already a buffer.
func (w *WhatIf) Committed(slot int32) bool { return w.committed[slot] }

// Commit turns the slot into a buffer for all subsequent evaluations and
// re-times the committed state the way a trial would.
func (w *WhatIf) Commit(slot int32) {
	w.committed[slot] = true
	sc := &w.sc
	if b := w.retime(slot, sc, w.d); b == 0 {
		w.src = w.rootRes * sc.pload[len(sc.pload)-1]
	}
	for k, p := range sc.path {
		w.load[p] = sc.pload[k]
	}
	w.refreshExtents()
}

// refreshExtents recomputes the sink-arrival extrema of the committed state.
func (w *WhatIf) refreshExtents() {
	k := len(w.sinkNet)
	w.pre = arena.Grow(w.pre, k+1)
	w.suf = arena.Grow(w.suf, k+1)
	e := emptyExtent
	w.pre[0] = e
	for i, nn := range w.sinkNet {
		e = e.with(w.d[nn] + w.src)
		w.pre[i+1] = e
	}
	e = emptyExtent
	w.suf[k] = e
	for i := k - 1; i >= 0; i-- {
		e = e.with(w.d[w.sinkNet[i]] + w.src)
		w.suf[i] = e
	}
}

// CommittedTreeNodes returns the tree node ids of all committed slots.
func (w *WhatIf) CommittedTreeNodes() []int {
	var out []int
	for id, s := range w.slotOf {
		if w.committed[s] {
			out = append(out, id)
		}
	}
	return out
}

// EvaluateWhatIf computes the tree's full Metrics through one flat WhatIf
// pass instead of Evaluate's staged network, skipping the structural
// re-validation walk. It exists for incremental (ECO) re-synthesis, where
// the tree is a splice of already-validated pieces and the evaluation is
// the tail of the hot path: the spliced structure is correct by
// construction, so only the numbers need recomputing. nSinks bounds the
// sink index space of the tree. Elmore mode only; agrees with Evaluate to
// 1e-9 relative (TestWhatIfMatchesEvaluate).
func (e *Evaluator) EvaluateWhatIf(t *ctree.Tree, nSinks int) (*Metrics, error) {
	if e.mode != Elmore {
		return nil, fmt.Errorf("eval: what-if evaluation requires Elmore mode")
	}
	w := NewWhatIf(t, e.tc)
	defer ReleaseWhatIf(w)
	if len(w.sinkIdx) == 0 {
		return nil, fmt.Errorf("eval: tree has no sinks")
	}
	// Every cell read below is written by Eval first (only sink indices in
	// w.sinkIdx are consulted), so the lane needs no zeroing.
	w.sinkDst = arena.Grow(w.sinkDst, nSinks)
	dst := w.sinkDst
	for _, si := range w.sinkIdx {
		if si < 0 || int(si) >= nSinks {
			return nil, fmt.Errorf("eval: sink index %d outside [0,%d)", si, nSinks)
		}
	}
	lat, skew := w.Eval(dst)
	m := &Metrics{
		Latency: lat, Skew: skew, WL: t.Wirelength(),
		SinkDelays: make(map[int]float64, len(w.sinkIdx)),
	}
	m.Buffers, m.NTSVs = t.Counts()
	for _, si := range w.sinkIdx {
		m.SinkDelays[int(si)] = dst[si]
	}
	return m, nil
}

// Eval returns the committed state's latency and skew. When dst is non-nil
// it must be indexable by every original sink index; the per-sink delays
// are written into it.
func (w *WhatIf) Eval(dst []float64) (latency, skew float64) {
	if dst != nil {
		for k, nn := range w.sinkNet {
			dst[w.sinkIdx[k]] = w.d[nn] + w.src
		}
	}
	e := w.pre[len(w.sinkNet)]
	return e.hi, e.hi - e.lo
}

// Trial returns (latency, skew) of the committed state with slot also
// treated as a buffer, bit-identical to a full pass over the network (see
// the WhatIf comment). Trial leaves the committed state unchanged.
func (w *WhatIf) Trial(slot int32) (latency, skew float64) {
	sc := &w.sc
	b := w.retime(slot, sc, sc.d)
	src := w.src
	if b == 0 {
		src = w.rootRes * sc.pload[len(sc.pload)-1]
	}
	// Sink records are in pre-order too: b's sinks are one run of them.
	k0, _ := slices.BinarySearch(w.sinkNet, b)
	k1, _ := slices.BinarySearch(w.sinkNet, w.end[b])
	e := w.pre[k0].join(w.suf[k1])
	for _, nn := range w.sinkNet[k0:k1] {
		e = e.with(sc.d[nn] + src)
	}
	return e.hi, e.hi - e.lo
}

// retime re-times the network with slot switched on over the only part a
// buffer there can change. It re-sums the loads of slot's ancestors up to
// b, the nearest one that acts as a buffer (or the root driver 0), leaving
// them bottom-up in sc.path and sc.pload; writes the delays of b's subtree
// [b, end[b]) into d, reading committed delays only above b; and returns b.
// d is the workspace's own lane for Trial, or the committed lane itself for
// Commit.
func (w *WhatIf) retime(slot int32, sc *whatIfScratch, d []float64) int32 {
	inCap := w.buf.InputCap
	sc.path, sc.pload = sc.path[:0], sc.pload[:0]
	child, childLoad := slot, 0.0
	for {
		p := w.parent[child]
		kids := sc.kids[:0]
		for c := p + 1; c < w.end[p]; c = w.end[c] {
			kids = append(kids, c)
		}
		sc.kids = kids
		// The full pass adds child contributions in decreasing id order.
		l := 0.0
		for k := len(kids) - 1; k >= 0; k-- {
			switch c := kids[k]; {
			case c == slot || w.active(c, -1):
				l += inCap
			case c == child:
				l += childLoad
			default:
				l += w.load[c]
			}
		}
		shield := p == 0 || w.active(p, -1)
		if !shield {
			l += w.capv[p]
		}
		sc.path = append(sc.path, p)
		sc.pload = append(sc.pload, l)
		if shield {
			break
		}
		child, childLoad = p, l
	}
	j := len(sc.path) - 1
	b := sc.path[j]
	if b == 0 {
		d[0] = 0
	} else {
		d[b] = w.arrival(w.d[w.parent[b]], b, sc.pload[j], true)
	}
	j--
	for i := b + 1; i < w.end[b]; i++ {
		l := w.load[i]
		if j >= 0 && i == sc.path[j] {
			l = sc.pload[j]
			j--
		}
		d[i] = w.arrival(d[w.parent[i]], i, l, w.active(i, slot))
	}
	return b
}

// active reports whether node i acts as a buffer: a fixed buffer, a
// committed slot, or the trial slot extra (-1 for none).
func (w *WhatIf) active(i, extra int32) bool {
	switch w.kind[i] {
	case wiBuf:
		return true
	case wiSlot:
		return w.committed[i] || i == extra
	}
	return false
}

// arrival is node i's delay given its parent's delay dp, its load and
// whether it acts as a buffer: the one delay rule both passes apply.
func (w *WhatIf) arrival(dp float64, i int32, load float64, active bool) float64 {
	visible := load
	if active {
		visible = w.buf.InputCap
	}
	at := dp + w.res[i]*visible
	if active {
		at += w.buf.Delay(load)
	}
	return at
}

// evalFull is the O(n) full pass: it writes the loads and delays of every
// node, with slot extra (-1 for none) switched on over the committed state,
// into load and d (each at least as long as the network), and returns the
// latency and skew. build evaluates the committed state with it, and tests
// hold every Trial to it bit for bit.
func (w *WhatIf) evalFull(extra int32, load, d []float64) (latency, skew float64) {
	n := len(w.parent)
	load, d = load[:n], d[:n]
	clear(load)
	inCap := w.buf.InputCap
	// Bottom-up loads (children have larger indices than parents).
	for i := int32(n - 1); i >= 1; i-- {
		active := w.active(i, extra)
		l := load[i]
		if !active {
			l += w.capv[i]
		}
		load[i] = l
		p := w.parent[i]
		if active {
			load[p] += inCap
		} else {
			load[p] += l
		}
	}
	// Top-down delays.
	d[0] = 0
	for i := int32(1); i < int32(n); i++ {
		d[i] = w.arrival(d[w.parent[i]], i, load[i], w.active(i, extra))
	}
	src := w.rootRes * load[0]
	e := emptyExtent
	for _, nn := range w.sinkNet {
		e = e.with(d[nn] + src)
	}
	return e.hi, e.hi - e.lo
}
