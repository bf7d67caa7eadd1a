// Package dse implements the design-space exploration flow of Sec. III-E:
// sweeping the fanout threshold that switches DP nodes between full and
// intra-side inserting modes, sweeping the baselines' knobs for comparison
// (fanout threshold of [7], criticality fraction of [6]), and extracting
// Pareto frontiers over the multi-objective space (Sec. II-C).
package dse

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"dscts/internal/baseline"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/par"
	"dscts/internal/tech"
)

// Point is one explored solution in the objective space.
type Point struct {
	Flow    string  // which flow produced it
	Param   float64 // the swept knob value (threshold or fraction)
	Latency float64
	Skew    float64
	Bufs    int
	TSVs    int
	WL      float64
}

// Resources returns the combined resource axis of Fig. 12 (#buffers+#nTSVs).
func (p Point) Resources() int { return p.Bufs + p.TSVs }

// SweepFanout runs the paper's DSE flow: the full synthesis with the DP
// inserting modes controlled by each fanout threshold (Sec. IV-E sweeps 20
// to 1000 step 10). Sweep points are independent whole syntheses, so they
// run concurrently — base.Workers (0 = all CPUs) bounds the total budget,
// split between the sweep fan-out and each point's inner phases. Results
// are indexed by threshold position, so the output order (and, since
// every phase is deterministic, the output itself) is identical for every
// worker count.
func SweepFanout(root geom.Point, sinks []geom.Point, tc *tech.Tech, thresholds []int, base core.Options) ([]Point, error) {
	return SweepFanoutContext(context.Background(), root, sinks, tc, thresholds, base)
}

// SweepFanoutContext is SweepFanout with cancellation: the context is
// threaded into every sweep point's synthesis, so a cancelled sweep stops
// mid-phase inside whichever points are in flight and skips the rest,
// returning an error wrapping ctx.Err(). If base.Progress is set it
// receives one core.PhaseSweep event per completed point (with the
// completed/total counts) instead of the points' inner phase events, which
// would interleave meaninglessly across concurrent syntheses.
func SweepFanoutContext(ctx context.Context, root geom.Point, sinks []geom.Point, tc *tech.Tech, thresholds []int, base core.Options) ([]Point, error) {
	out := make([]Point, len(thresholds))
	err := sweepFanout(ctx, root, sinks, tc, thresholds, nil, base, func(i int, o *core.Outcome) {
		out[i] = fromMetrics("ours-dse", float64(thresholds[i]), o.Metrics)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepFanout is the engine shared by SweepFanoutContext and
// SweepFanoutCorners: a concurrent threshold sweep through par.Do, with the
// worker budget split between the fan-out and each point's inner phases (so
// short sweeps on wide machines still saturate), and one PhaseSweep
// progress event per completed point. A failed point or a done ctx starts
// no further point; which points had already run may then depend on timing,
// but the success path stays fully deterministic. Each point's Outcome is
// handed to record(i, o) with i the threshold index; record runs
// concurrently across points and must only touch index-disjoint state.
// The corner set is forced on every point — nil for plain sweeps, so a
// caller's base.Corners can never smuggle discarded per-point sign-off
// work into a sweep that has nowhere to report it.
func sweepFanout(ctx context.Context, root geom.Point, sinks []geom.Point, tc *tech.Tech, thresholds []int, corners []corner.Corner, base core.Options, record func(i int, o *core.Outcome)) error {
	if len(thresholds) == 0 {
		return fmt.Errorf("dse: no thresholds")
	}
	workers := par.N(base.Workers)
	inner := max(1, workers/len(thresholds))
	progress := base.Progress
	var completed atomic.Int64
	err := par.Do(ctx, workers, len(thresholds), func(i int) error {
		opt := base
		opt.FanoutThreshold = thresholds[i]
		opt.Workers = inner
		opt.Progress = nil
		opt.Corners = corners
		o, err := core.SynthesizeContext(ctx, root, sinks, tc, opt)
		if err != nil {
			return fmt.Errorf("threshold %d: %w", thresholds[i], err)
		}
		record(i, o)
		if progress != nil {
			progress(core.Progress{
				Phase: core.PhaseSweep, Done: true,
				Point: int(completed.Add(1)), Total: len(thresholds),
			})
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("dse: %w", err)
	}
	return nil
}

// Thresholds builds an inclusive integer sweep [lo, hi] with the given step.
func Thresholds(lo, hi, step int) []int {
	if step <= 0 || hi < lo {
		return nil
	}
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// Fractions builds an inclusive float sweep [lo, hi] with the given step.
func Fractions(lo, hi, step float64) []float64 {
	if step <= 0 || hi < lo {
		return nil
	}
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, v)
	}
	return out
}

// SweepFanoutFlip applies baseline [7] to clones of a buffered clock tree
// for each threshold, one concurrent clone per point (workers <= 0 means
// all CPUs). Result order follows the threshold order regardless of the
// worker count.
func SweepFanoutFlip(buffered *ctree.Tree, tc *tech.Tech, thresholds []int, workers int) ([]Point, error) {
	params := make([]float64, len(thresholds))
	for i, th := range thresholds {
		params[i] = float64(th)
	}
	return sweepFlip(buffered, tc, "buffered+[7]", "fanout flip", params, workers, func(tr *ctree.Tree, th float64) error {
		_, err := baseline.FanoutFlip(tr, int(th))
		return err
	})
}

// SweepCriticalFlip applies baseline [6] to clones of a buffered clock tree
// for each criticality fraction, one concurrent clone per point (workers
// <= 0 means all CPUs). Result order follows the fraction order regardless
// of the worker count.
func SweepCriticalFlip(buffered *ctree.Tree, tc *tech.Tech, fractions []float64, workers int) ([]Point, error) {
	return sweepFlip(buffered, tc, "buffered+[6]", "critical flip", fractions, workers, func(tr *ctree.Tree, q float64) error {
		_, err := baseline.CriticalFlip(tr, tc, q)
		return err
	})
}

// sweepFlip is the body both baseline sweeps share: for each parameter it
// flips a fresh clone of the buffered tree, evaluates it and records the
// point under flow, through par.Do; the first failure stops the sweep.
func sweepFlip(buffered *ctree.Tree, tc *tech.Tech, flow, knob string, params []float64, workers int, flip func(tr *ctree.Tree, p float64) error) ([]Point, error) {
	out := make([]Point, len(params))
	err := par.Do(context.TODO(), workers, len(params), func(i int) error {
		tr := buffered.Clone()
		if err := flip(tr, params[i]); err != nil {
			return fmt.Errorf("dse: %s %g: %w", knob, params[i], err)
		}
		m, err := eval.New(tc, eval.Elmore).Evaluate(tr)
		if err != nil {
			return err
		}
		out[i] = fromMetrics(flow, params[i], m)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func fromMetrics(flow string, param float64, m *eval.Metrics) Point {
	return Point{
		Flow: flow, Param: param,
		Latency: m.Latency, Skew: m.Skew,
		Bufs: m.Buffers, TSVs: m.NTSVs, WL: m.WL,
	}
}

// Objective extracts a minimized objective value from a point.
type Objective func(Point) float64

// Latency, Skew and Resources are the Fig. 12 axes.
var (
	Latency   Objective = func(p Point) float64 { return p.Latency }
	Skew      Objective = func(p Point) float64 { return p.Skew }
	Resources Objective = func(p Point) float64 { return float64(p.Resources()) }
)

// Pareto returns the non-dominated subset of pts under the given minimized
// objectives, sorted by the first objective. A point is dominated if some
// other point is no worse in every objective and strictly better in one.
func Pareto(pts []Point, objs ...Objective) []Point {
	if len(objs) == 0 {
		return nil
	}
	var out []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			noWorse, better := true, false
			for _, f := range objs {
				if f(q) > f(p)+1e-12 {
					noWorse = false
					break
				}
				if f(q) < f(p)-1e-12 {
					better = true
				}
			}
			if noWorse && better {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool { return objs[0](out[a]) < objs[0](out[b]) })
	return out
}

// Hypervolume computes the 2-D hypervolume indicator of a Pareto front with
// respect to a reference point (both objectives minimized): the area
// dominated by the front and bounded by (refX, refY). Used to compare the
// coverage of different flows' fronts quantitatively.
func Hypervolume(front []Point, fx, fy Objective, refX, refY float64) float64 {
	f := Pareto(front, fx, fy)
	area := 0.0
	prevX := refX
	// Walk from largest fx to smallest; each segment contributes width ×
	// height above the reference.
	for i := len(f) - 1; i >= 0; i-- {
		x, y := fx(f[i]), fy(f[i])
		if x >= refX || y >= refY {
			continue
		}
		if x < prevX {
			area += (prevX - x) * (refY - y)
			prevX = x
		}
	}
	return area
}
