package eval

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
		src := w.rootRes * load[0]
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
	case w.kind[b] == wiBuf:
		kind = "buffer"
	default:
		kind = "slot"
	}
	return b, kind, len(sc.path) - 1
}
