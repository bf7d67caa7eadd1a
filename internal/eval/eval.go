// Package eval extracts the paper's reported metrics from a finished clock
// tree: latency (max source-to-sink delay), skew (max-min), buffer and nTSV
// counts, and clock wirelength. It lowers the tree's wiring annotations into
// a staged RC network (network.go) and times it with the Elmore model (the
// optimization model) or the NLDM+slew model (the paper's evaluation model,
// Sec. IV-A). The incremental what-if model (whatif.go) embeds the same
// network, so every evaluation path reads one set of RC lanes.
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

// evalScratch is the per-evaluation working set: the RC network and the
// delay result lane. It lives in evalPool and is fully rewound per
// evaluation, so steady-state Evaluate calls allocate only the Metrics that
// escape to the caller.
type evalScratch struct {
	net    network
	delays []float64
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
			lane := make([]float64, len(s.net.sinkNet))
			for k, node := range s.net.sinkNet {
				lane[k] = s.delays[node]
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
// MaxSlew), returning the sink delay extremes. The network and its delays
// stay in s until s goes back to the pool. It rejects a tree whose sink
// nodes repeat a sink index, which ctree.Validate admits: its delay map
// would silently hold fewer sinks than the tree.
func (e *Evaluator) measure(s *evalScratch, t *ctree.Tree, m *Metrics) (lo, hi float64, err error) {
	net := &s.net
	net.lower(t, t.Root(), e.tc, false)
	if len(net.sinkNet) == 0 {
		return 0, 0, fmt.Errorf("eval: tree has no sinks")
	}
	if e.mode == NLDM {
		s.delays = net.delaysNLDMInto(s.delays, e.InputSlew, e.tbl)
	} else {
		s.delays = net.delaysInto(s.delays)
	}
	m.SinkDelays = make(map[int]float64, len(net.sinkNet))
	lo, hi = math.Inf(1), math.Inf(-1)
	for k, node := range net.sinkNet {
		d := s.delays[node]
		m.SinkDelays[int(net.sinkIdx[k])] = d
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if len(m.SinkDelays) < len(net.sinkNet) {
		return 0, 0, fmt.Errorf("eval: %d sink nodes carry only %d distinct sink indices",
			len(net.sinkNet), len(m.SinkDelays))
	}
	m.Latency = hi
	m.Skew = hi - lo
	if e.mode == NLDM {
		// delaysNLDMInto left every node's slew in the network's lane.
		for _, node := range net.sinkNet {
			m.MaxSlew = math.Max(m.MaxSlew, net.slew[node])
		}
	}
	return lo, hi, nil
}

// DownstreamCap returns the capacitance an unbuffered node id drives: the
// root-stage load of id's subtree, lowered from id. Wire caps by side, nTSV
// caps and sink pin caps count, and each buffer, node-level or mid-edge,
// shields everything below it behind its input cap. The ECO engine uses it
// to re-legalize graft points: a spliced leaf net that outgrew the drive
// budget gets a shielding buffer. A node buffer at id would be the whole
// root stage, so the caller checks BufferAtNode first.
func DownstreamCap(t *ctree.Tree, id int, tc *tech.Tech) float64 {
	s := getEvalScratch()
	defer evalPool.Put(s)
	s.net.lower(t, id, tc, false)
	return s.net.sourceLoad()
}
