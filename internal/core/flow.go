// Package core orchestrates the paper's full double-side CTS flow (Fig. 4):
// hierarchical clock routing (dual-level clustering + hierarchical DME),
// concurrent buffer & nTSV insertion by multi-objective DP, and skew
// refinement, returning the annotated clock tree together with evaluated
// metrics and per-phase runtimes.
package core

import (
	"context"
	"fmt"
	"time"

	"dscts/internal/cluster"
	"dscts/internal/corner"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/fault"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/partition"
	"dscts/internal/refine"
	"dscts/internal/tech"
)

// SideMode selects the insertion design space.
type SideMode int

const (
	// DoubleSide allows all patterns (full mode), optionally restricted
	// per-node by FanoutThreshold.
	DoubleSide SideMode = iota
	// SingleSide forbids nTSVs everywhere: the flow degenerates to a
	// conventional front-side buffered CTS ("Our Buffered Clock Tree" in
	// Table III).
	SingleSide
)

// Phase names a stage of the flow, as reported through Options.Progress.
type Phase string

// The flow's phases, in execution order. PhaseSweep is emitted by DSE
// sweeps (one event per completed sweep point) rather than by Synthesize.
const (
	PhaseRoute   Phase = "route"
	PhaseInsert  Phase = "insert"
	PhaseRefine  Phase = "refine"
	PhaseEval    Phase = "eval"
	PhaseSweep   Phase = "sweep"
	PhaseCorners Phase = "corners"
	// PhasePartition covers the partition-parallel pipeline's region work:
	// the start event is the die split, per-region completions follow as
	// Point/Total events, and the done event closes the phase.
	PhasePartition Phase = "partition"
	// PhaseStitch is the top-tree merge + cross-region skew balancing of
	// the partitioned pipeline.
	PhaseStitch Phase = "stitch"
	// PhaseECO covers incremental re-synthesis (SynthesizeECO): the start
	// event opens the dirty-set re-run, Point/Total events follow per
	// re-synthesized scope (region or leaf cluster), and the done event
	// closes it. Stitch/eval/corners phases still follow as usual.
	PhaseECO Phase = "eco"
)

// Progress is one flow progress event. For synthesis phases, Done marks the
// end of the phase and Elapsed its runtime. For PhaseSweep events Point and
// Total carry the completed/total sweep-point counts.
type Progress struct {
	Phase   Phase
	Done    bool
	Elapsed time.Duration
	Point   int
	Total   int
}

// ProgressFunc observes flow progress. Callbacks may be invoked from
// multiple goroutines (DSE sweeps report points concurrently), so
// implementations must be safe for concurrent use. They should return
// quickly: the flow calls them inline.
type ProgressFunc func(Progress)

// Options configures Synthesize.
type Options struct {
	// Dual carries the clustering sizes; zero value uses the paper's
	// Hc=3000, Lc=30. Cap-aware splitting is always installed from the
	// technology's buffer max load.
	Dual cluster.DualOptions
	// MaxTrunkEdge subdivides trunk edges for insertion (µm). Zero uses
	// a default derived from the buffer max load.
	MaxTrunkEdge float64
	// Mode selects double- or single-side synthesis.
	Mode SideMode
	// FanoutThreshold, when positive and Mode is DoubleSide, configures
	// the heterogeneous DP of Sec. III-E: edges driving at least this
	// many sinks get full mode (nTSVs allowed); smaller subtrees are
	// restricted to intra-side mode. Sweeping the threshold from high to
	// low interpolates from "back-side trunk only" to the all-full-mode
	// flow of Table III. NOTE: the paper's prose states the opposite
	// assignment, which would deny nTSVs exactly where [2]/[7] show they
	// pay off and would contradict Fig. 12; see EXPERIMENTS.md.
	FanoutThreshold int
	// Alpha, Beta, Gamma are the MOES weights; zeros use 1, 10, 1.
	Alpha, Beta, Gamma float64
	// SelectMinLatency picks the minimum-latency root solution instead of
	// MOES (Fig. 10 ablation).
	SelectMinLatency bool
	// KeepRootSet retains the root candidate set (Fig. 10).
	KeepRootSet bool
	// DiversePruning widens DP pruning with the resource axis so the root
	// set exposes buffer/nTSV trade-offs (Fig. 10 study); see
	// insert.Config.DiversePruning.
	DiversePruning bool
	// MaxPerSide caps the DP solution set per side type (0 = default 48);
	// see insert.Config.MaxPerSide.
	MaxPerSide int
	// SkipRefine disables skew refinement (Fig. 11 ablation).
	SkipRefine bool
	// Refine carries the skew-refinement knobs; zero value uses the
	// paper's p=23, m=33.
	Refine refine.Params
	// UseFlatDME replaces hierarchical DME with matching-based DME
	// (Fig. 5(c) ablation).
	UseFlatDME bool
	// Workers bounds the concurrency of every parallel phase (clustering,
	// DP insertion, corner sign-off, partitioned regions; DSE sweeps also
	// consult it). Skew refinement is sequential. 0 or negative means one
	// worker per CPU. The flow is deterministic in the worker count:
	// Workers=1 and Workers=N produce identical trees and Metrics —
	// parallel loops only distribute pure per-item work and all
	// floating-point reductions run in a fixed order.
	Workers int
	// Partition configures the partition-parallel mega-scale pipeline
	// (DESIGN.md §3): with MaxSinks > 0 and more sinks than that, the die
	// is split into capacity-bounded regions, each region runs the full
	// clustering→DME→insertion→refinement stack independently on the
	// shared worker budget, and a stitch stage merges the region roots
	// under a buffered top tree with cross-region skew balancing. The
	// zero value — and any placement that fits a single region — runs the
	// monolithic flow, bit-identically to a build without this option.
	Partition partition.Options
	// Corners, when non-empty, runs multi-corner sign-off after the flow:
	// the finished tree is re-evaluated under each PVT corner (fanned out
	// on the same worker budget) and Outcome.Corners carries the
	// per-corner Metrics plus the cross-corner summary. Corners never
	// affect synthesis itself — the tree is built at the typical corner —
	// and the per-corner results are deterministic in both the worker
	// count and the corner order (merge order follows this slice).
	Corners []corner.Corner
	// RetainECO asks the flow to keep the incremental-re-synthesis state on
	// the outcome (Outcome.Retained): the input placement plus, for a
	// partitioned run, the per-region trees and summaries. SynthesizeECO
	// requires it. Retention only extends lifetimes — nothing is copied —
	// but at mega scale the region trees it keeps alive roughly double the
	// resident tree memory, so it is opt-in.
	RetainECO bool
	// Progress, when non-nil, receives one event at the start and end of
	// each phase (per completed point in DSE sweeps, and per completed
	// corner in multi-corner sign-off). It never affects results. Must be
	// safe for concurrent use; see ProgressFunc.
	Progress ProgressFunc
	// Faults is the deterministic fault-injection registry (internal/fault)
	// consulted at the flow's phase boundaries (core.route/insert/refine/
	// eval/stitch/eco) so tests and the chaos soak can script failures
	// reproducibly. nil — the default — is a zero-cost no-op. Like Progress
	// it is a test/scheduling hook, never part of the result identity: a
	// run that completes under injection is bit-identical to one without.
	Faults *fault.Registry
	// RegionExec, when non-nil, executes the regions of a partitioned run
	// instead of the built-in local path — the cluster-mode seam that lets
	// a daemon dispatch regions to peers and splice the results into the
	// local stitch. The executor must be result-equivalent to RunRegion
	// for the same inputs, and every result passes RegionOut.Validate
	// before the stitch uses it; the engine consumes results in
	// region-ID order regardless of completion order, so a conforming
	// executor preserves bit-identical Metrics. With it set, the outer
	// region fan-out is not capped at the core count (the executor owns
	// scheduling; the pipeline's goroutines just wait on it). Ignored by
	// the monolithic flow and by ECO re-synthesis. Like Progress, it is a
	// scheduling hook, never part of the result identity.
	RegionExec RegionExecFunc
}

// Outcome is the result of a synthesis run.
type Outcome struct {
	Tree    *ctree.Tree
	Metrics *eval.Metrics
	DP      *insert.Result
	Refine  *refine.Report
	Dual    *cluster.Dual
	// Corners is the multi-corner sign-off report (nil unless
	// Options.Corners was set).
	Corners *corner.Report
	// Regions carries per-region statistics of a partitioned run (nil for
	// the monolithic flow), in region ID order.
	Regions []RegionStat
	// ECO summarizes an incremental run (nil for full synthesis).
	ECO *ECOStats
	// Retained is the incremental-re-synthesis state consumed by
	// SynthesizeECO; nil unless Options.RetainECO was set.
	Retained *ECOState

	// Phase runtimes. For a partitioned run RouteTime/InsertTime/
	// RefineTime sum the per-region phase times (total work, not
	// wall-clock); PartitionTime and StitchTime are wall-clock. ECOTime is
	// the wall-clock of an incremental run's dirty-set re-synthesis span.
	RouteTime     time.Duration
	InsertTime    time.Duration
	RefineTime    time.Duration
	PartitionTime time.Duration
	StitchTime    time.Duration
	CornersTime   time.Duration
	ECOTime       time.Duration
	TotalTime     time.Duration
}

// Synthesize runs the full flow on the given clock root and sink placement.
func Synthesize(rootPos geom.Point, sinks []geom.Point, tc *tech.Tech, opt Options) (*Outcome, error) {
	return SynthesizeContext(context.Background(), rootPos, sinks, tc, opt)
}

// SynthesizeContext is Synthesize with cancellation: the flow checks ctx
// between phases and the long-running inner loops (the DP ready-queue,
// every refinement trial) observe it mid-phase, so a queued or running
// synthesis stops promptly — without leaking goroutines — when ctx is
// cancelled. On cancellation the returned error wraps ctx.Err().
// Cancellation never corrupts results: a run either returns a complete
// Outcome or an error, and a run that completes is bit-identical to an
// uncancellable one.
func SynthesizeContext(ctx context.Context, rootPos geom.Point, sinks []geom.Point, tc *tech.Tech, opt Options) (*Outcome, error) {
	if tc == nil {
		return nil, fmt.Errorf("core: nil tech")
	}
	if err := tc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("core: no sinks")
	}
	// A NaN or infinite position otherwise surfaces phases later, as an
	// infeasible insertion or a non-finite load, far from the bad input.
	if !rootPos.Finite() {
		return nil, fmt.Errorf("core: clock root has non-finite position %v", rootPos)
	}
	for i, p := range sinks {
		if !p.Finite() {
			return nil, fmt.Errorf("core: sink %d has non-finite position %v", i, p)
		}
	}
	// Reject a bad corner list before spending the whole synthesis on it.
	if len(opt.Corners) > 0 {
		if err := corner.ValidateSet(opt.Corners); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if err := opt.Partition.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()

	// The partitioned pipeline takes over only when there is actually more
	// than one region; everything at or below the capacity runs the
	// monolithic flow, so Partition.MaxSinks=0 (or a single region) is
	// bit-identical to a build without the option.
	if opt.Partition.Enabled() && len(sinks) > opt.Partition.MaxSinks {
		return synthesizePartitioned(ctx, rootPos, sinks, tc, opt, start)
	}

	out := &Outcome{}
	emit := func(ph Phase, done bool, elapsed time.Duration) {
		if opt.Progress != nil {
			opt.Progress(Progress{Phase: ph, Done: done, Elapsed: elapsed})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	st, err := runStages(ctx, rootPos, sinks, tc, opt, opt.Workers, emit)
	if err != nil {
		return nil, err
	}
	out.Tree, out.Dual, out.DP, out.Refine = st.tree, st.dual, st.dp, st.refine
	out.RouteTime, out.InsertTime, out.RefineTime = st.routeTime, st.insertTime, st.refineTime

	if err := opt.Faults.Check(ctx, fault.PointEval); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	emit(PhaseEval, false, 0)
	t3 := time.Now()
	if st.refine != nil {
		// Refinement's exit report already evaluated exactly this tree with
		// an identical evaluator (eval.New(tc, eval.Elmore) on the final
		// buffered tree), so its After IS the flow's final metrics — reusing
		// it skips a duplicate full evaluation, bit-identically.
		m := st.refine.After
		out.Metrics = &m
	} else {
		m, err := eval.New(tc, eval.Elmore).Evaluate(out.Tree)
		if err != nil {
			return nil, fmt.Errorf("core: evaluation: %w", err)
		}
		out.Metrics = m
	}
	emit(PhaseEval, true, time.Since(t3))

	// Multi-corner sign-off: re-evaluate the finished tree per PVT corner.
	if len(opt.Corners) > 0 {
		if err := signoffCorners(ctx, out, tc, opt, emit); err != nil {
			return nil, err
		}
	}
	if opt.RetainECO {
		out.Retained = &ECOState{
			Root: rootPos, Sinks: sinks, Tech: tc, Opt: retainedOptions(opt),
		}
	}
	out.TotalTime = time.Since(start)
	return out, nil
}
