package eval

import (
	"fmt"
	"math"

	"dscts/internal/ctree"
)

// This file is the hierarchical half of the evaluator, used by the
// partition-parallel pipeline (internal/core, DESIGN.md §3): each region
// subtree is summarized ONCE by SummarizeRegion, and global metrics are then
// composed from a small top tree plus those summaries — without re-walking
// any region tree. Composition is exact under the Elmore model because a
// buffer sits at every region tap: the tap buffer shields the region
// (upstream sees only its input cap) and drives exactly the load the
// region-local root driver drove, so
//
//	delay(sink j of region i) = A_i + d_ij
//
// where A_i is the arrival at tap i's buffer OUTPUT in the top tree, minus
// the tap buffer's drive term — which the region-local delay d_ij already
// carries as its root-driver term (both resistances are Buf.DriveRes by
// construction). TestComposeHierMatchesFullEval pins equality against the
// full-tree evaluator to 1e-9 relative.

// RegionEval summarizes one synthesized region subtree for hierarchical
// composition.
type RegionEval struct {
	// RootLoad is the unshielded capacitance (fF) the region root presents
	// to whatever drives it: stage-0 load of the region-local RC network.
	RootLoad float64
	// MaxDelay and MinDelay are the region-internal sink delay extremes
	// (ps), as seen from the region-local root driver.
	MaxDelay, MinDelay float64
	// Metrics is the full region-local evaluation; SinkDelays is keyed by
	// REGION-LOCAL sink index.
	Metrics *Metrics
	// Sinks maps region-local sink index to the original (global) sink
	// index. SummarizeRegion leaves it nil; the pipeline fills it in before
	// composing.
	Sinks []int
}

// SummarizeRegion evaluates a region subtree in one pass: the region-local
// Metrics plus the root load the region presents upstream. Elmore mode only —
// NLDM slew propagation does not compose additively across the tap buffers.
// Unlike Evaluate it does not re-validate the tree: the pipeline validates
// the merged tree once at stitch time, and a full structural walk per region
// would double the evaluation cost at mega scale.
func (e *Evaluator) SummarizeRegion(t *ctree.Tree) (*RegionEval, error) {
	if e.mode != Elmore {
		return nil, fmt.Errorf("eval: hierarchical summaries require Elmore mode")
	}
	s := getEvalScratch()
	defer evalPool.Put(s)
	m := &Metrics{WL: t.Wirelength()}
	m.Buffers, m.NTSVs = t.Counts()
	lo, hi, err := e.measure(s, t, m)
	if err != nil {
		return nil, err
	}
	return &RegionEval{RootLoad: s.net.sourceLoad(), MaxDelay: hi, MinDelay: lo, Metrics: m}, nil
}

// TopDelays returns, per region index, the tap arrival time (ps) in the top
// (stitch) tree: input arrival plus the tap buffer's intrinsic delay,
// excluding its drive term over the region load. The region-local delays
// carry that term as their root-driver contribution, so arrival + d_ij is
// the exact merged-tree sink delay. The top tree lowers through
// network.lower into a pooled scratch, so every legal edge pattern (front
// or back wire, nTSVs, mid-edge and node buffers) composes exactly. taps
// maps top-tree node ids to region indices; each region has exactly one
// tap, a childless node carrying a BufferAtNode (the shield the composition
// needs), which the network models unloaded.
func (e *Evaluator) TopDelays(top *ctree.Tree, taps map[int]int, regions []*RegionEval) ([]float64, error) {
	s := getEvalScratch()
	defer evalPool.Put(s)
	s.net.lower(top, top.Root(), e.tc, false)
	s.delays = s.net.delaysInto(s.delays)
	out := make([]float64, len(regions))
	tapped := make([]bool, len(regions))
	for id := range top.Nodes {
		ri, isTap := taps[id]
		if !isTap {
			continue
		}
		n := &top.Nodes[id]
		switch {
		case ri < 0 || ri >= len(regions):
			return nil, fmt.Errorf("eval: tap %d names region %d of %d", id, ri, len(regions))
		case !n.BufferAtNode:
			return nil, fmt.Errorf("eval: region tap %d has no buffer (composition requires a shielded tap)", id)
		case len(n.Children) > 0:
			return nil, fmt.Errorf("eval: region tap %d has top-tree children", id)
		case tapped[ri]:
			return nil, fmt.Errorf("eval: region %d has two taps in the top tree", ri)
		}
		tapped[ri] = true
		out[ri] = s.delays[s.net.netOf[id]]
	}
	for ri, ok := range tapped {
		if !ok {
			return nil, fmt.Errorf("eval: region %d has no tap in the top tree", ri)
		}
	}
	return out, nil
}

// ComposeHier computes global metrics from the top tree, the tap arrivals
// TopDelays returned for it and the per-region summaries, without
// re-walking any region tree: O(top + total sinks) with the per-region
// evaluation work already paid. Every RegionEval must carry its Sinks map
// (region-local → global sink index). Resource counts and wirelength are
// the top tree's plus the regions'.
func (e *Evaluator) ComposeHier(top *ctree.Tree, arrivals []float64, regions []*RegionEval) (*Metrics, error) {
	if len(arrivals) != len(regions) {
		return nil, fmt.Errorf("eval: %d tap arrivals for %d regions", len(arrivals), len(regions))
	}
	total := 0
	for ri, re := range regions {
		if len(re.Sinks) != len(re.Metrics.SinkDelays) {
			return nil, fmt.Errorf("eval: region %d sink map has %d entries for %d sinks",
				ri, len(re.Sinks), len(re.Metrics.SinkDelays))
		}
		total += len(re.Sinks)
	}
	m := &Metrics{SinkDelays: make(map[int]float64, total), WL: top.Wirelength()}
	m.Buffers, m.NTSVs = top.Counts()
	lo, hi := math.Inf(1), math.Inf(-1)
	for ri, re := range regions {
		m.Buffers += re.Metrics.Buffers
		m.NTSVs += re.Metrics.NTSVs
		m.WL += re.Metrics.WL
		for local, global := range re.Sinks {
			d, ok := re.Metrics.SinkDelays[local]
			if !ok {
				return nil, fmt.Errorf("eval: region %d missing delay for local sink %d", ri, local)
			}
			g := arrivals[ri] + d
			m.SinkDelays[global] = g
			lo = math.Min(lo, g)
			hi = math.Max(hi, g)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("eval: no sinks to compose")
	}
	m.Latency = hi
	m.Skew = hi - lo
	return m, nil
}
