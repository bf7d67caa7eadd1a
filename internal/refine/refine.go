// Package refine implements the resource-aware end-point skew refinement of
// Sec. III-D: when the post-insertion skew exceeds p% of the maximum
// latency, up to n = min(N·t, m) end-points are refined by inserting one
// buffer at their low-level clustering centroids, where t is the adaptive
// scale factor of Fig. 8 and m bounds the total refinement budget.
//
// An end-point buffer changes timing two ways: it shields the leaf net's
// capacitance from the trunk (speeding the shared upstream path) and adds a
// gate delay to its own cluster's sinks. Refinement is therefore applied one
// end-point at a time in descending order of delay, keeping an insertion
// only if it improves skew without degrading latency beyond a guard band —
// that is the "resource-aware" part: buffers that do not pay for themselves
// are rolled back. If the slow-side pass leaves the skew above target, a
// second pass pads the fastest end-points (raising the minimum delay), a
// documented extension that keeps the method effective when slow paths are
// wire-dominated (see DESIGN.md).
package refine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/tech"
)

// Params are the tuning knobs of Sec. III-D.
type Params struct {
	// TriggerPct is p: refinement triggers when skew > p% of latency.
	// Paper value 23.
	TriggerPct float64
	// MaxEndpoints is m, the refinement budget. Paper value 33.
	MaxEndpoints int
	// LatencyGuard bounds acceptable latency degradation per accepted
	// buffer, as a fraction (default 0.02 = 2%).
	LatencyGuard float64
	// EnablePadding enables the fast-side padding pass.
	EnablePadding bool
	// Workers is ignored: trials run one at a time on one workspace. The
	// field remains only because perfbench, a separate module, still
	// assigns it; delete the two together.
	//
	// Deprecated: refinement is sequential.
	Workers int
}

// DefaultParams returns the paper's experimental settings.
func DefaultParams() Params {
	return Params{TriggerPct: 23, MaxEndpoints: 33, LatencyGuard: 0.02, EnablePadding: true}
}

// AdaptiveT is the adaptive scale factor t of Fig. 8 as a function of
// x = N/10,000: t stays at 0.10 up to x = 0.6, decreases linearly to 0.06
// at x = 1.0, and saturates at 0.06 beyond.
func AdaptiveT(n int) float64 {
	x := float64(n) / 10000.0
	switch {
	case x <= 0.6:
		return 0.10
	case x >= 1.0:
		return 0.06
	default:
		return 0.10 - (x-0.6)/(1.0-0.6)*0.04
	}
}

// Budget returns n = min(N·t, m), the number of end-points to refine.
func Budget(sinks int, p Params) int {
	n := int(math.Ceil(float64(sinks) * AdaptiveT(sinks)))
	if n > p.MaxEndpoints {
		n = p.MaxEndpoints
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Report describes what the refinement did.
type Report struct {
	Triggered     bool
	Before, After eval.Metrics
	Inserted      int // buffers accepted
	Attempted     int // end-points tried
}

// Refine runs skew refinement on the tree in place.
//
// The accept/reject loop evaluates candidates against a WhatIf view of the
// RC network (built once, committed state kept evaluated) instead of
// re-running a full Evaluate per attempt. A trial costs O(affected
// subtree), not O(network): it re-sums loads from the candidate up to the
// nearest buffer above it and re-times only that buffer's subtree. It still
// returns exactly the full pass's (latency, skew): subtrees are contiguous
// pre-order id ranges, a buffer shields its parent from any load change
// below it, and max/min are exact (see eval.WhatIf). So the decisions, the
// tree and every metric are those of a full re-evaluation per trial.
//
// Trials run one at a time, in rank order, each against the state the
// decisions before it left. A trial re-times a small fraction of the
// network, so overlapping trials on several cores cost more to coordinate
// than they saved (PERFORMANCE.md).
func Refine(t *ctree.Tree, tc *tech.Tech, p Params) (*Report, error) {
	return RefineContext(context.Background(), t, tc, p)
}

// RefineContext is Refine with cancellation: the context is observed before
// every trial, so a cancelled refinement stops between trials and returns an
// error wrapping ctx.Err() with the tree unchanged (accepted end-point
// buffers are only applied on success).
func RefineContext(ctx context.Context, t *ctree.Tree, tc *tech.Tech, p Params) (*Report, error) {
	if p.TriggerPct <= 0 {
		return nil, fmt.Errorf("refine: trigger percentage must be positive, got %v", p.TriggerPct)
	}
	ev := eval.New(tc, eval.Elmore)
	before, err := ev.Evaluate(t)
	if err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	rep := &Report{Before: *before, After: *before}
	target := p.TriggerPct / 100 * before.Latency
	if before.Skew <= target {
		return rep, nil
	}
	rep.Triggered = true

	n := Budget(len(before.SinkDelays), p)

	w := eval.NewWhatIf(t, tc)
	defer eval.ReleaseWhatIf(w)
	// Per-sink delays of the current accepted state, indexed by original
	// sink index (the ranking key).
	maxSink := 0
	for idx := range before.SinkDelays {
		if idx > maxSink {
			maxSink = idx
		}
	}
	sinkDelay := make([]float64, maxSink+1)
	// Seed the loop state from the WhatIf model itself (not the reference
	// Evaluate, which sums in a different order and agrees only to ~1e-9)
	// so every accept/reject comparison is internally consistent.
	curLat, curSkew := w.Eval(sinkDelay)
	delaysStale := false

	// Rank centroids by the delay of their slowest sink (descending).
	type endpoint struct {
		slot  int32
		delay float64
	}
	rank := func(slowFirst bool) []endpoint {
		var eps []endpoint
		for _, cid := range t.Centroids() {
			slot := w.SlotOf(cid)
			if t.Nodes[cid].BufferAtNode || slot < 0 || w.Committed(slot) {
				continue
			}
			worst, best := math.Inf(-1), math.Inf(1)
			for _, c := range t.Nodes[cid].Children {
				sn := &t.Nodes[c]
				if sn.Kind != ctree.KindSink {
					continue
				}
				d := sinkDelay[sn.SinkIdx]
				worst = math.Max(worst, d)
				best = math.Min(best, d)
			}
			if math.IsInf(worst, -1) {
				continue
			}
			if slowFirst {
				eps = append(eps, endpoint{slot, worst})
			} else {
				eps = append(eps, endpoint{slot, best})
			}
		}
		sort.Slice(eps, func(i, j int) bool {
			if slowFirst {
				return eps[i].delay > eps[j].delay
			}
			return eps[i].delay < eps[j].delay
		})
		return eps
	}

	var ctxErr error
	tryPass := func(slowFirst bool) {
		if delaysStale {
			// Ranking reads per-sink delays; refresh them once per pass
			// rather than on every accept.
			w.Eval(sinkDelay)
			delaysStale = false
		}
		eps := rank(slowFirst)
		// The budget n counts refined (accepted) end-points; attempts are
		// bounded separately so rejected trials cannot stall the pass.
		maxAttempts := 4 * n
		if maxAttempts < 50 {
			maxAttempts = 50
		}
		attempts := 0
		for _, ep := range eps {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return
			}
			if rep.Inserted >= n || attempts >= maxAttempts || curSkew <= target {
				return
			}
			attempts++
			rep.Attempted++
			lat, skew := w.Trial(ep.slot)
			if skew >= curSkew || lat > curLat*(1+p.LatencyGuard) {
				continue // rejected: the buffer does not pay for itself
			}
			w.Commit(ep.slot)
			// The trial already evaluated exactly this committed state
			// (same active slot set, same arithmetic).
			curLat, curSkew = lat, skew
			delaysStale = true
			rep.Inserted++
		}
	}

	// Pass 1 (paper): descending order of delay — shield the slow side.
	tryPass(true)
	// Pass 2 (extension): pad the fast side while it helps, re-ranking
	// after each round since accepted buffers shift the delay profile.
	for round := 0; ctxErr == nil && p.EnablePadding && round < 6 && curSkew > target && rep.Inserted < n; round++ {
		ins := rep.Inserted
		tryPass(false)
		if rep.Inserted == ins {
			break
		}
	}
	if ctxErr != nil {
		return nil, fmt.Errorf("refine: %w", ctxErr)
	}

	// Apply the committed end-point buffers to the tree and report the
	// exact final metrics from a standard evaluation.
	for _, cid := range w.CommittedTreeNodes() {
		t.Nodes[cid].BufferAtNode = true
	}
	after, err := ev.Evaluate(t)
	if err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	rep.After = *after
	return rep, nil
}
