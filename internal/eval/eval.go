// Package eval extracts the paper's reported metrics from a finished clock
// tree: latency (max source-to-sink delay), skew (max-min), buffer and nTSV
// counts, and clock wirelength. It builds a staged RC network from the
// tree's wiring annotations and evaluates it with the Elmore model (the
// optimization model) or the NLDM+slew model (the paper's evaluation model,
// Sec. IV-A).
package eval

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"dscts/internal/arena"
	"dscts/internal/ctree"
	"dscts/internal/par"
	"dscts/internal/tech"
	"dscts/internal/timing"
)

// Mode selects the delay model.
type Mode int

const (
	// Elmore evaluates with the L-type Elmore model used by optimization.
	Elmore Mode = iota
	// NLDM evaluates buffers with NLDM lookup tables and propagates slew
	// (PERI); wires remain Elmore.
	NLDM
)

// Metrics are the per-design numbers reported in Table III.
type Metrics struct {
	Latency float64 // ps
	Skew    float64 // ps
	Buffers int
	NTSVs   int
	WL      float64 // µm, total clock wirelength
	// SinkDelays maps original sink index to its source-to-sink delay.
	SinkDelays map[int]float64
	// MaxSlew is the worst sink transition time (NLDM mode only).
	MaxSlew float64
}

// Evaluator caches technology-derived tables.
type Evaluator struct {
	tc   *tech.Tech
	tbl  *timing.NLDM
	mode Mode
	// InputSlew is the transition time at the clock root (ps).
	InputSlew float64
}

// New creates an evaluator. Mode NLDM synthesizes the buffer table once.
func New(tc *tech.Tech, mode Mode) *Evaluator {
	e := &Evaluator{tc: tc, mode: mode, InputSlew: 10}
	if mode == NLDM {
		e.tbl = timing.SynthesizeNLDM(tc.Buf)
	}
	return e
}

// sinkPair records one sink's network node during lowering.
type sinkPair struct {
	sinkIdx int // original sink index
	node    int // network node carrying the sink pin
}

// evalScratch is the per-evaluation working set: the RC network, the
// tree-vertex → network-node map and the delay/slew result lanes. It lives
// in evalPool and is fully rewound per evaluation, so steady-state Evaluate
// calls allocate only the Metrics that escape to the caller.
type evalScratch struct {
	net    timing.Network
	netOf  []int
	pairs  []sinkPair
	delays []float64
	slews  []float64
}

// evalPool and whatIfPool recycle evaluation scratch and WhatIf models
// across every evaluation; overlapping evaluations (corner views,
// concurrent regions and jobs) each check out their own.
var (
	evalPool   arena.Pool[evalScratch]
	whatIfPool arena.Pool[WhatIf]
)

func getEvalScratch() *evalScratch {
	if s := evalPool.Get(); s != nil {
		return s
	}
	return &evalScratch{}
}

// Evaluate computes the metrics of the annotated tree.
func (e *Evaluator) Evaluate(t *ctree.Tree) (*Metrics, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	s := getEvalScratch()
	defer evalPool.Put(s)
	m := &Metrics{WL: t.Wirelength()}
	m.Buffers, m.NTSVs = t.Counts()
	if _, _, err := e.measure(s, t, m); err != nil {
		return nil, err
	}
	return m, nil
}

// EvaluateViews evaluates one tree under several technology views: the
// multi-corner sign-off kernel. It validates the tree and takes its
// wirelength and resource counts once, then lowers and times it once per
// view on the worker budget (par.N semantics), checking ctx before each
// view. It returns each view's Metrics in view order, equal to
// views[i].Evaluate(t), and the largest per-sink delay spread across the
// views: the maximum over sinks of that sink's max-minus-min delay, 0 for a
// single view (which keeps no per-sink lane). onView, when non-nil, is
// called after each view completes with the completed and total counts; it
// may be called from several goroutines. A cancelled ctx returns an error
// wrapping ctx.Err().
func EvaluateViews(ctx context.Context, t *ctree.Tree, views []*Evaluator, workers int, onView func(done, total int)) ([]*Metrics, float64, error) {
	if len(views) == 0 {
		return nil, 0, fmt.Errorf("eval: no views to evaluate")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("eval: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, 0, fmt.Errorf("eval: %w", err)
	}
	wl := t.Wirelength()
	buffers, ntsvs := t.Counts()
	ms := make([]*Metrics, len(views))
	errs := make([]error, len(views))
	// lanes[i] holds view i's sink delays in lowering order, which is the
	// same sink order under every view of one tree.
	var lanes [][]float64
	if len(views) > 1 {
		lanes = make([][]float64, len(views))
	}
	var done atomic.Int64
	par.ForEach(workers, len(views), func(i int) {
		if ctx.Err() != nil {
			return
		}
		s := getEvalScratch()
		defer evalPool.Put(s)
		m := &Metrics{WL: wl, Buffers: buffers, NTSVs: ntsvs}
		if _, _, err := views[i].measure(s, t, m); err != nil {
			errs[i] = err
			return
		}
		if lanes != nil {
			lane := make([]float64, len(s.pairs))
			for k, p := range s.pairs {
				lane[k] = s.delays[p.node]
			}
			lanes[i] = lane
		}
		ms[i] = m
		if onView != nil {
			onView(int(done.Add(1)), len(views))
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("eval: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	if lanes == nil {
		return ms, 0, nil
	}
	return ms, maxSpread(lanes), nil
}

// maxSpread is the largest per-sink spread across equal-length delay lanes:
// max over k of (max - min over lanes of lane[k]). Every reduction is a pure
// min/max, so the result does not depend on the lane or sink order.
func maxSpread(lanes [][]float64) float64 {
	var spread float64
	for k, d0 := range lanes[0] {
		lo, hi := d0, d0
		for _, l := range lanes[1:] {
			lo = math.Min(lo, l[k])
			hi = math.Max(hi, l[k])
		}
		spread = math.Max(spread, hi-lo)
	}
	return spread
}

// measure is the evaluation body Evaluate, EvaluateViews and SummarizeRegion
// share: it lowers t under e's technology into s, times the network, and
// fills m's per-sink fields (SinkDelays, Latency, Skew and, in NLDM mode,
// MaxSlew), returning the sink delay extremes. The network, its delays and
// the sink pairs stay in s until s goes back to the pool. It rejects a tree
// whose sink nodes repeat a sink index, which ctree.Validate admits: its
// delay map would silently hold fewer sinks than the tree.
func (e *Evaluator) measure(s *evalScratch, t *ctree.Tree, m *Metrics) (lo, hi float64, err error) {
	s.lower(t, e.tc)
	if len(s.pairs) == 0 {
		return 0, 0, fmt.Errorf("eval: tree has no sinks")
	}
	if e.mode == NLDM {
		s.delays = s.net.DelaysNLDMInto(s.delays, e.InputSlew, e.tbl)
	} else {
		s.delays = s.net.DelaysInto(s.delays)
	}
	m.SinkDelays = make(map[int]float64, len(s.pairs))
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range s.pairs {
		d := s.delays[p.node]
		m.SinkDelays[p.sinkIdx] = d
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if len(m.SinkDelays) < len(s.pairs) {
		return 0, 0, fmt.Errorf("eval: %d sink nodes carry only %d distinct sink indices",
			len(s.pairs), len(m.SinkDelays))
	}
	m.Latency = hi
	m.Skew = hi - lo
	if e.mode == NLDM {
		s.slews = s.net.SlewsInto(s.slews, e.InputSlew, e.tbl)
		for _, p := range s.pairs {
			m.MaxSlew = math.Max(m.MaxSlew, s.slews[p.node])
		}
	}
	return lo, hi, nil
}

// DownstreamCap returns the unshielded capacitance that node id's output
// stage drives, under exactly BuildNetwork's lowering rules: wire body cap
// by side, nTSV caps, sink pin caps, with buffers — node-level or mid-edge
// — shielding everything below them behind their input cap. It lives here,
// next to BuildNetwork, so the lowering rules have a single home; the ECO
// engine uses it to re-legalize graft points (a spliced leaf net that
// outgrew the drive budget gets a shielding buffer).
// TestDownstreamCapMatchesNetwork pins it against the network builder.
func DownstreamCap(t *ctree.Tree, id int, tc *tech.Tech) float64 {
	front, back, tsv, buf := tc.Front(), tc.Back(), tc.TSV, tc.Buf
	var rec func(c int) float64
	rec = func(c int) float64 {
		n := &t.Nodes[c]
		w := n.Wiring
		length := t.EdgeLen(c)
		var capv float64
		switch {
		case w.BufMid:
			return front.UnitCap*(length/2) + buf.InputCap
		case w.WireSide == ctree.Back:
			capv = back.UnitCap*length + float64(w.NTSVCount())*tsv.Cap
		default:
			capv = front.UnitCap * length
		}
		if n.BufferAtNode {
			return capv + buf.InputCap
		}
		if n.Kind == ctree.KindSink {
			return capv + tc.SinkCap
		}
		for _, cc := range n.Children {
			capv += rec(cc)
		}
		return capv
	}
	total := 0.0
	for _, c := range t.Nodes[id].Children {
		total += rec(c)
	}
	return total
}

// BuildNetwork lowers the annotated clock tree into a staged RC network.
// It returns the network and a map from original sink index to network node.
//
// Lowering rules per edge (parent → child), following the delay models of
// Sec. II-B: a front/back wire is a series resistance with its cap at the
// downstream node (L-model); a mid-edge buffer splits the edge into two
// halves around a buffer element; an nTSV is a series resistance with its
// cap at its downstream node. A node-level buffer (BufferAtNode) is placed
// between the edge's arrival and the node's children. The clock root drives
// stage 0 through the buffer's drive resistance (root driver).
func BuildNetwork(t *ctree.Tree, tc *tech.Tech) (*timing.Network, map[int]int, error) {
	net := timing.NewNetwork(tc.Buf.DriveRes)
	sinkNode := make(map[int]int)
	netOf := make([]int, t.Len())
	lowerTree(t, tc, net, netOf, func(sinkIdx, node int) {
		sinkNode[sinkIdx] = node
	})
	return net, sinkNode, nil
}

// lower rebuilds the scratch network and sink pairs from the tree, reusing
// every lane from the previous evaluation.
func (s *evalScratch) lower(t *ctree.Tree, tc *tech.Tech) {
	s.net.Reset(tc.Buf.DriveRes)
	s.net.Grow(t.Len() + t.Len()/2)
	s.netOf = arena.Grow(s.netOf, t.Len())
	s.pairs = s.pairs[:0]
	lowerTree(t, tc, &s.net, s.netOf, func(sinkIdx, node int) {
		s.pairs = append(s.pairs, sinkPair{sinkIdx: sinkIdx, node: node})
	})
}

// lowerTree is the single home of the lowering rules: it appends the tree's
// RC elements to net (which must hold only the root driver), records each
// tree vertex's network node in netOf (len >= t.Len()), and reports each
// sink's pin node through emit, in preorder.
func lowerTree(t *ctree.Tree, tc *tech.Tech, net *timing.Network, netOf []int, emit func(sinkIdx, node int)) {
	front, back, tsv, buf := tc.Front(), tc.Back(), tc.TSV, tc.Buf
	netOf[t.Root()] = 0
	if t.Nodes[t.Root()].BufferAtNode {
		netOf[t.Root()] = net.AddBuffer(0, 0, buf)
	}
	t.PreOrder(func(id int) {
		if id == t.Root() {
			return
		}
		n := &t.Nodes[id]
		parent := netOf[n.Parent]
		length := t.EdgeLen(id)
		w := n.Wiring
		var at int
		switch {
		case n.Kind == ctree.KindSink:
			// Leaf-net star branch: front wire (L-model: wire cap at the
			// far node) terminated by the sink pin cap.
			at = net.AddWire(parent, front.UnitRes*length, front.UnitCap*length+tc.SinkCap)
			emit(n.SinkIdx, at)
		case w.BufMid:
			h := length / 2
			upw := net.AddWire(parent, front.UnitRes*h, front.UnitCap*h)
			bufn := net.AddBuffer(upw, 0, buf)
			at = net.AddWire(bufn, front.UnitRes*h, front.UnitCap*h)
		case w.WireSide == ctree.Back:
			cur := parent
			if w.TSVUp {
				cur = net.AddWire(cur, tsv.Res, tsv.Cap)
			}
			cur = net.AddWire(cur, back.UnitRes*length, back.UnitCap*length)
			if w.TSVDown {
				cur = net.AddWire(cur, tsv.Res, tsv.Cap)
			}
			at = cur
		default: // plain front wire
			at = net.AddWire(parent, front.UnitRes*length, front.UnitCap*length)
		}
		if n.BufferAtNode {
			at = net.AddBuffer(at, 0, buf)
		}
		netOf[id] = at
	})
}
