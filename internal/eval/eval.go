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
	s.lower(t, t.Root(), e.tc)
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

// DownstreamCap returns the capacitance an unbuffered node id drives: the
// root-stage load of id's subtree, lowered by lowerTree from id. Wire caps
// by side, nTSV caps and sink pin caps count, and each buffer, node-level or
// mid-edge, shields everything below it behind its input cap. The ECO
// engine uses it to re-legalize graft points: a spliced leaf net that
// outgrew the drive budget gets a shielding buffer. A node buffer at id
// would be the whole root stage, so the caller checks BufferAtNode first.
func DownstreamCap(t *ctree.Tree, id int, tc *tech.Tech) float64 {
	s := getEvalScratch()
	defer evalPool.Put(s)
	s.lower(t, id, tc)
	return s.net.SourceLoad()
}

// lower rebuilds the scratch network and sink pairs from root's subtree of
// t, reusing every lane from the previous evaluation.
func (s *evalScratch) lower(t *ctree.Tree, root int, tc *tech.Tech) {
	s.net.Reset(tc.Buf.DriveRes)
	s.net.Grow(t.Len() + t.Len()/2)
	s.netOf = arena.Grow(s.netOf, t.Len())
	s.pairs = s.pairs[:0]
	lowerTree(t, root, tc, &s.net, s.netOf, func(sinkIdx, node int) {
		s.pairs = append(s.pairs, sinkPair{sinkIdx: sinkIdx, node: node})
	}, nil)
}

// rcBuilder is what lowerTree appends RC elements to: *timing.Network, or
// the what-if model's lanes (whatIfLanes). Each call adds one node below
// parent and returns its id.
type rcBuilder interface {
	AddWire(parent int, res, cap float64) int
	AddBuffer(parent int, res float64, b tech.Buffer) int
}

// lowerTree is the one place the evaluator turns tree edges into R and C.
// Evaluate, EvaluateViews, SummarizeRegion, TopDelays, DownstreamCap and the
// what-if model all lower through it. It appends the RC elements of root's
// subtree to b, which must hold only the root driver (node 0), records each
// tree vertex's node in netOf (len >= t.Len()), and reports each sink's pin
// node through emit, in preorder. When plant is non-nil, every unbuffered
// centroid below root passes its arrival node through it, and its children
// hang from the node plant returns (the what-if model's buffer slots).
//
// Lowering rules per edge (parent → child), following the delay models of
// Sec. II-B: a front/back wire is a series resistance with its cap at the
// downstream node (L-model); a mid-edge buffer splits the edge into two
// halves around a buffer element; an nTSV is a series resistance with its
// cap at its downstream node. A node-level buffer (BufferAtNode) is placed
// between the edge's arrival and the node's children. The clock root drives
// stage 0 through the buffer's drive resistance (root driver).
func lowerTree(t *ctree.Tree, root int, tc *tech.Tech, b rcBuilder, netOf []int, emit func(sinkIdx, node int), plant func(id, at int) int) {
	front, back, tsv, buf := tc.Front(), tc.Back(), tc.TSV, tc.Buf
	netOf[root] = 0
	if t.Nodes[root].BufferAtNode {
		netOf[root] = b.AddBuffer(0, 0, buf)
	}
	var below func(id int)
	below = func(id int) {
		for _, c := range t.Nodes[id].Children {
			n := &t.Nodes[c]
			parent := netOf[id]
			length := t.EdgeLen(c)
			w := n.Wiring
			var at int
			switch {
			case n.Kind == ctree.KindSink:
				// Leaf-net star branch: front wire (L-model: wire cap at
				// the far node) terminated by the sink pin cap.
				at = b.AddWire(parent, front.UnitRes*length, front.UnitCap*length+tc.SinkCap)
				emit(n.SinkIdx, at)
			case w.BufMid:
				h := length / 2
				upw := b.AddWire(parent, front.UnitRes*h, front.UnitCap*h)
				bufn := b.AddBuffer(upw, 0, buf)
				at = b.AddWire(bufn, front.UnitRes*h, front.UnitCap*h)
			case w.WireSide == ctree.Back:
				at = parent
				if w.TSVUp {
					at = b.AddWire(at, tsv.Res, tsv.Cap)
				}
				at = b.AddWire(at, back.UnitRes*length, back.UnitCap*length)
				if w.TSVDown {
					at = b.AddWire(at, tsv.Res, tsv.Cap)
				}
			default: // plain front wire
				at = b.AddWire(parent, front.UnitRes*length, front.UnitCap*length)
			}
			if n.BufferAtNode {
				at = b.AddBuffer(at, 0, buf)
			} else if plant != nil && n.Kind == ctree.KindCentroid {
				at = plant(c, at)
			}
			netOf[c] = at
			below(c)
		}
	}
	below(root)
}
