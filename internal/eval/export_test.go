package eval

import (
	"math"

	"dscts/internal/ctree"
)

// refLoad and refD are FullPass's lanes, reused across calls.
var refLoad, refD []float64

// FullPass runs the O(n) reference pass on the model's own test lanes
// (so it must not run concurrently): the network with slot extra (-1 for
// none) switched on over the committed state. When dst is non-nil the
// per-sink delays are written into it by original sink index, as Eval
// does.
func (w *WhatIf) FullPass(extra int32, dst []float64) (latency, skew float64) {
	n := len(w.parent)
	if len(refLoad) < n {
		refLoad, refD = make([]float64, n), make([]float64, n)
	}
	load, d := refLoad, refD
	latency, skew = w.evalFull(extra, load, d)
	if dst != nil {
		src := w.res[0] * load[0]
		for k, nn := range w.sinkNet {
			dst[w.sinkIdx[k]] = d[nn] + src
		}
	}
	return latency, skew
}

// ShieldOf returns the node a trial at slot re-times from (its nearest
// ancestor acting as a buffer, or the root driver 0), that node's kind
// ("root", "buffer" or "slot"), and how many ancestors below it the trial
// re-sums. It re-times in the model's own workspace, as Trial does.
func (w *WhatIf) ShieldOf(slot int32) (b int32, kind string, below int) {
	sc := &w.sc
	b = w.retime(slot, sc, sc.d)
	switch {
	case b == 0:
		kind = "root"
	case w.kind[b] == bufNode:
		kind = "buffer"
	default:
		kind = "slot"
	}
	return b, kind, len(sc.path) - 1
}

// SlewReference lowers t as Evaluate does, runs the NLDM delay pass and
// holds the slew lane it leaves to the slewsInto reference. It returns the
// first node where the two differ (-1 when none) and the reference's worst
// sink slew.
func (e *Evaluator) SlewReference(t *ctree.Tree) (mismatch int, maxSlew float64) {
	s := getEvalScratch()
	defer evalPool.Put(s)
	s.net.lower(t, t.Root(), e.tc, false)
	s.delays = s.net.delaysNLDMInto(s.delays, e.InputSlew, e.tbl)
	ref := s.net.slewsInto(nil, e.InputSlew, e.tbl)
	for _, node := range s.net.sinkNet {
		maxSlew = math.Max(maxSlew, ref[node])
	}
	return slewMismatch(&s.net, e.InputSlew, e.tbl), maxSlew
}
