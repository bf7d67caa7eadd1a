package corner

import (
	"context"
	"fmt"
	"math"

	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/tech"
)

// Result is one corner's evaluation of a finished clock tree.
type Result struct {
	Corner  Corner        `json:"corner"`
	Metrics *eval.Metrics `json:"metrics"`
}

// Summary carries the derived cross-corner numbers: which corner is worst
// on each axis, how far the corners spread, and how much any single sink's
// delay diverges across corners.
type Summary struct {
	// WorstSkew is the maximum skew over corners, and WorstSkewCorner the
	// corner that attains it (first in corner order on ties).
	WorstSkew       float64 `json:"worst_skew_ps"`
	WorstSkewCorner string  `json:"worst_skew_corner"`
	// WorstLatency / WorstLatencyCorner likewise for latency.
	WorstLatency       float64 `json:"worst_latency_ps"`
	WorstLatencyCorner string  `json:"worst_latency_corner"`
	// LatencySpread is max-minus-min latency across corners: how much the
	// tree's insertion-to-capture window moves with PVT.
	LatencySpread float64 `json:"latency_spread_ps"`
	// MaxDivergence is the worst per-sink cross-corner delay spread: the
	// maximum over sinks of (max-min delay to that sink across corners).
	// Unlike LatencySpread it catches sinks whose delay reorders between
	// corners even when the envelope stays put.
	MaxDivergence float64 `json:"max_divergence_ps"`
}

// Report is the multi-corner sign-off of one tree: per-corner Metrics in
// the caller's corner order plus the cross-corner Summary.
type Report struct {
	Results []Result `json:"results"`
	Summary Summary  `json:"summary"`
}

// ByName returns the result for the named corner, or nil.
func (r *Report) ByName(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Corner.Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Options configures Evaluate.
type Options struct {
	// Mode selects the per-corner delay model (eval.Elmore default, or
	// eval.NLDM for table-based sign-off).
	Mode eval.Mode
	// Workers bounds the corner fan-out (0 or negative = one per CPU).
	// Results are bit-identical for every worker count: each corner's
	// evaluation is a pure function of (tree, tech, corner) and results
	// merge in corner order.
	Workers int
	// OnCorner, when non-nil, is called after each corner completes with
	// the completed and total counts. It may be called from multiple
	// goroutines.
	OnCorner func(done, total int)
}

// Evaluate signs off a finished clock tree across the given corners: each
// corner derives its own technology view (Corner.Apply), and
// eval.EvaluateViews validates the tree once, then evaluates it under every
// view on the shared worker budget (opt.Workers), merging the per-corner
// Metrics in corner order. A cancelled ctx stops scheduling further corners
// and returns an error wrapping ctx.Err().
func Evaluate(ctx context.Context, t *ctree.Tree, tc *tech.Tech, corners []Corner, opt Options) (*Report, error) {
	if err := ValidateSet(corners); err != nil {
		return nil, err
	}
	rep := &Report{Results: make([]Result, len(corners))}
	views := make([]*eval.Evaluator, len(corners))
	for i, c := range corners {
		c = c.Normalize()
		rep.Results[i].Corner = c
		views[i] = eval.New(c.Apply(tc), opt.Mode)
	}
	ms, divergence, err := eval.EvaluateViews(ctx, t, views, opt.Workers, opt.OnCorner)
	if err != nil {
		return nil, fmt.Errorf("corner: %w", err)
	}
	for i, m := range ms {
		rep.Results[i].Metrics = m
	}
	rep.Summary = summarize(rep.Results, divergence)
	return rep, nil
}

// summarize computes the cross-corner numbers around the per-sink
// divergence EvaluateViews measured. Every reduction is a pure max/min, so
// the result is independent of iteration order; corner ties resolve to the
// first corner in caller order.
func summarize(results []Result, divergence float64) Summary {
	s := Summary{WorstSkew: math.Inf(-1), WorstLatency: math.Inf(-1), MaxDivergence: divergence}
	minLat := math.Inf(1)
	for _, r := range results {
		if r.Metrics.Skew > s.WorstSkew {
			s.WorstSkew = r.Metrics.Skew
			s.WorstSkewCorner = r.Corner.Name
		}
		if r.Metrics.Latency > s.WorstLatency {
			s.WorstLatency = r.Metrics.Latency
			s.WorstLatencyCorner = r.Corner.Name
		}
		minLat = math.Min(minLat, r.Metrics.Latency)
	}
	s.LatencySpread = s.WorstLatency - minLat
	return s
}
