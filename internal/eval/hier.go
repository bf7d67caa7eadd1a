package eval

import (
	"fmt"
	"math"

	"dscts/internal/ctree"
	"dscts/internal/timing"
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
	s.lower(t, e.tc)
	if len(s.pairs) == 0 {
		return nil, fmt.Errorf("eval: region tree has no sinks")
	}
	s.delays = s.net.DelaysInto(s.delays)
	m := &Metrics{SinkDelays: make(map[int]float64, len(s.pairs)), WL: t.Wirelength()}
	m.Buffers, m.NTSVs = t.Counts()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range s.pairs {
		d := s.delays[p.node]
		m.SinkDelays[p.sinkIdx] = d
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	m.Latency = hi
	m.Skew = hi - lo
	return &RegionEval{RootLoad: s.net.SourceLoad(), MaxDelay: hi, MinDelay: lo, Metrics: m}, nil
}

// buildTopNetwork lowers a top (stitch) tree — plain front wires, node
// buffers, region taps — into an RC network. taps maps top-tree node ids to
// region indices; each tap node must carry a BufferAtNode (the shield the
// composition proof needs) and contributes its region's RootLoad to the
// buffer's driven load. Returns the network and, per region index, the
// network node whose Delays() entry is the tap buffer's output arrival.
func buildTopNetwork(top *ctree.Tree, taps map[int]int, regions []*RegionEval, e *Evaluator) (*timing.Network, []int, error) {
	front, buf := e.tc.Front(), e.tc.Buf
	net := timing.NewNetwork(buf.DriveRes)
	tapNode := make([]int, len(regions))
	for i := range tapNode {
		tapNode[i] = -1
	}
	netOf := make([]int, top.Len())
	netOf[top.Root()] = 0
	var err error
	top.PreOrder(func(id int) {
		if err != nil {
			return
		}
		n := &top.Nodes[id]
		if id != top.Root() {
			if n.Wiring.WireSide != ctree.Front || n.Wiring.BufMid {
				err = fmt.Errorf("eval: top-tree edge %d is not a plain front wire", id)
				return
			}
			length := top.EdgeLen(id)
			netOf[id] = net.AddWire(netOf[n.Parent], front.UnitRes*length, front.UnitCap*length)
		}
		ri, isTap := taps[id]
		if isTap {
			if ri < 0 || ri >= len(regions) {
				err = fmt.Errorf("eval: tap %d names region %d of %d", id, ri, len(regions))
				return
			}
			if !n.BufferAtNode {
				err = fmt.Errorf("eval: region tap %d has no buffer (composition requires a shielded tap)", id)
				return
			}
			if len(n.Children) > 0 {
				err = fmt.Errorf("eval: region tap %d has top-tree children", id)
				return
			}
			// The tap buffer is modeled unloaded here: its drive term over
			// the region load is already inside the region-local delays
			// (both drivers are Buf.DriveRes), so the tap's output arrival
			// in this network is exactly what those delays compose against.
			b := net.AddBuffer(netOf[id], 0, buf)
			tapNode[ri] = b
			netOf[id] = b
			return
		}
		if n.BufferAtNode {
			netOf[id] = net.AddBuffer(netOf[id], 0, buf)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for ri, tn := range tapNode {
		if tn < 0 {
			return nil, nil, fmt.Errorf("eval: region %d has no tap in the top tree", ri)
		}
	}
	return net, tapNode, nil
}

// TopDelays returns, per region index, the tap arrival time (ps): input
// arrival plus the tap buffer's intrinsic delay, excluding its drive term
// over the region load — the region-local delays carry that term as their
// root-driver contribution, so arrival + d_ij is the exact merged-tree sink
// delay.
func (e *Evaluator) TopDelays(top *ctree.Tree, taps map[int]int, regions []*RegionEval) ([]float64, error) {
	net, tapNode, err := buildTopNetwork(top, taps, regions, e)
	if err != nil {
		return nil, err
	}
	delays := net.Delays()
	out := make([]float64, len(regions))
	for ri, tn := range tapNode {
		out[ri] = delays[tn]
	}
	return out, nil
}

// ComposeHier computes global metrics from the top tree and the per-region
// summaries, without re-walking any region tree: O(top + total sinks) with
// the per-region evaluation work already paid. Every RegionEval must carry
// its Sinks map (region-local → global sink index). Resource counts and
// wirelength are the top tree's plus the regions'.
func (e *Evaluator) ComposeHier(top *ctree.Tree, taps map[int]int, regions []*RegionEval) (*Metrics, error) {
	arrivals, err := e.TopDelays(top, taps, regions)
	if err != nil {
		return nil, err
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
