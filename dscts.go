// Package dscts is a from-scratch Go implementation of "A Systematic
// Approach for Multi-objective Double-side Clock Tree Synthesis" (Jiang et
// al., DAC 2025): clock tree synthesis that uses both front-side and
// back-side metal layers connected by nano-TSVs.
//
// The flow has three stages (Fig. 4 of the paper):
//
//  1. Hierarchical clock routing — dual-level k-means clustering (Hc/Lc)
//     followed by hierarchical Deferred-Merge Embedding.
//  2. Concurrent buffer & nTSV insertion — multi-objective dynamic
//     programming over the six edge patterns of Fig. 6, with van
//     Ginneken-style pruning per side and MOES root selection (Eq. 3).
//  3. Skew refinement — resource-aware end-point buffers at low-level
//     cluster centroids.
//
// Quick start:
//
//	p := dscts.GenerateBenchmark("C4", 1)               // or parse a DEF
//	out, err := dscts.Synthesize(p.Root, p.Sinks, dscts.ASAP7(), dscts.Options{})
//	fmt.Println(out.Metrics.Latency, out.Metrics.Skew)
//
// # Parallelism and determinism
//
// Synthesize runs on a parallel, allocation-lean execution engine.
// Options.Workers bounds the concurrency of every parallel phase (0 = one
// worker per CPU): the clustering assignment loop and the per-high-cluster
// low-level clusterings are sharded, independent DP subtrees generate
// concurrently through a ready-queue, corner views time concurrently, and
// DSE sweep points run as concurrent whole syntheses. Skew refinement runs
// its trials one at a time: each re-times a small subtree, too little work
// to share. The flow is deterministic in the worker count — Workers=1 and
// Workers=N produce bit-identical Metrics (latency, skew, resource counts,
// wirelength and every per-sink delay), because parallel loops distribute
// only pure per-item work and every floating-point reduction runs in a
// fixed order. TestWorkersDeterminism enforces this for all of C1..C5.
//
// Independent of the worker count, the hot paths are algorithmically
// accelerated: nearest-centroid queries use an exact spatial grid instead
// of an O(n·k) scan, the DP prunes through typed sorting into per-worker
// scratch recycled from a package pool, and refinement judges candidate
// buffers against an incremental what-if view of the RC network instead of
// re-evaluating the whole tree per trial. Measured on the C3/C5 benchmarks this gives ~4.5x
// faster clustering, ~10x fewer insertion allocations and ~7x faster
// end-to-end synthesis at one worker versus the original implementation;
// see PERFORMANCE.md and BENCH_parallel.json for the numbers.
//
// # Serving
//
// The flow is cancellable and observable: SynthesizeContext threads a
// context.Context through every phase (including the DP ready-queue and
// every refinement trial) and Options.Progress streams per-phase events.
// On top of that, internal/serve and the cmd/dsctsd daemon expose the
// engine as a multi-tenant HTTP service with a bounded job queue, a
// content-addressed result cache and NDJSON progress streaming; see
// README.md for service usage.
//
// The subpackages under internal/ carry the substrates (geometry, timing
// models, DME, DP insertion, baselines, DEF/LEF I/O); this package exposes
// the surface a downstream user needs. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the reproduction results.
package dscts

import (
	"context"
	"fmt"
	"io"

	"dscts/internal/baseline"
	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/ctree"
	"dscts/internal/def"
	"dscts/internal/dse"
	"dscts/internal/eco"
	"dscts/internal/eval"
	"dscts/internal/export"
	"dscts/internal/geom"
	"dscts/internal/legal"
	"dscts/internal/partition"
	"dscts/internal/power"
	"dscts/internal/tech"
	"dscts/internal/viz"
)

// Point is a planar location in µm.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Tech is the double-side technology model (layers, buffer, nTSV).
type Tech = tech.Tech

// ASAP7 returns the paper's experimental technology: Table I layer
// parasitics, the BUFx4 clock buffer and the nTSV of Sec. IV-A.
func ASAP7() *Tech { return tech.ASAP7() }

// Options configures Synthesize; the zero value reproduces the paper's
// default full-mode double-side flow (Hc=3000, Lc=30, α,β,γ=1,10,1, skew
// refinement with p=23 and m=33).
type Options = core.Options

// SideMode selects single- or double-side synthesis.
type SideMode = core.SideMode

// Side modes.
const (
	// DoubleSide enables the full pattern set including nTSVs.
	DoubleSide SideMode = core.DoubleSide
	// SingleSide restricts insertion to the front side (the "Our
	// Buffered Clock Tree" flow of Table III).
	SingleSide SideMode = core.SingleSide
)

// Outcome is a synthesis result: the annotated clock tree, evaluated
// metrics, DP statistics, the refinement report and per-phase runtimes.
type Outcome = core.Outcome

// Metrics are the evaluated clock-tree numbers (latency, skew, buffers,
// nTSVs, wirelength, per-sink delays).
type Metrics = eval.Metrics

// Tree is the clock-tree data structure with double-side wiring
// annotations.
type Tree = ctree.Tree

// Synthesize runs the paper's full flow on a clock root position and sink
// placement.
func Synthesize(root Point, sinks []Point, tc *Tech, opt Options) (*Outcome, error) {
	return core.Synthesize(root, sinks, tc, opt)
}

// SynthesizeContext is Synthesize with cancellation: the flow observes ctx
// between phases and inside the long-running inner loops (DP generation,
// refinement trials), so a running synthesis stops promptly when ctx is
// cancelled, returning an error that wraps ctx.Err().
func SynthesizeContext(ctx context.Context, root Point, sinks []Point, tc *Tech, opt Options) (*Outcome, error) {
	return core.SynthesizeContext(ctx, root, sinks, tc, opt)
}

// Progress is a flow progress event; deliver a ProgressFunc in
// Options.Progress to observe per-phase starts/finishes (and per-point
// completions in DSE sweeps).
type Progress = core.Progress

// ProgressFunc observes flow progress; it may be called from multiple
// goroutines.
type ProgressFunc = core.ProgressFunc

// Phase names a stage of the flow in Progress events.
type Phase = core.Phase

// The flow's phases as reported in Progress events.
const (
	PhaseRoute     Phase = core.PhaseRoute
	PhaseInsert    Phase = core.PhaseInsert
	PhaseRefine    Phase = core.PhaseRefine
	PhaseEval      Phase = core.PhaseEval
	PhaseSweep     Phase = core.PhaseSweep
	PhaseCorners   Phase = core.PhaseCorners
	PhasePartition Phase = core.PhasePartition
	PhaseStitch    Phase = core.PhaseStitch
)

// PartitionOptions configures the partition-parallel mega-scale pipeline:
// set Options.Partition with MaxSinks > 0 to split placements larger than
// the capacity into regions that synthesize independently and stitch under
// a skew-balanced top tree (DESIGN.md §3). MaxSinks = 0 — or any placement
// that fits one region — runs the monolithic flow bit-identically.
type PartitionOptions = partition.Options

// Partition strategies.
const (
	// PartitionKD is the default recursive median cut (macro-aware,
	// density-following).
	PartitionKD = partition.StrategyKD
	// PartitionGrid tiles the die uniformly, kd-splitting overfull cells.
	PartitionGrid = partition.StrategyGrid
)

// RegionStat is one region's statistics in Outcome.Regions after a
// partitioned run.
type RegionStat = core.RegionStat

// SplitRegions exposes the partitioner directly: it returns the
// capacity-bounded regions the pipeline would synthesize for this
// placement. Useful for inspecting a partition before paying for the run.
func SplitRegions(sinks []Point, opt PartitionOptions) ([]partition.Region, error) {
	return partition.Split(sinks, opt)
}

// GenerateXLBenchmark synthesizes a seeded mega-scale placement with the
// given sink count (chunked generation: bounded working set, deterministic
// for every worker count). Pair with Options.Partition for synthesis.
func GenerateXLBenchmark(sinkCount int, seed int64) (*Placement, error) {
	return bench.GenerateXL(sinkCount, seed)
}

// ECODelta is an engineering change order against a prior synthesis: sinks
// added, moved or removed, plus optional corner- or technology-set
// replacements (DESIGN.md §4).
type ECODelta = eco.Delta

// ECOMove relocates one sink in an ECODelta.
type ECOMove = eco.Move

// ECOStats summarizes an incremental run on its Outcome (dirty scopes,
// reuse, whether a full fallback was forced).
type ECOStats = core.ECOStats

// SynthesizeECO incrementally re-synthesizes a prior outcome under a delta:
// only the dirty scopes (partition regions, or leaf clusters monolithically)
// re-run, and the fresh subtrees are spliced into the retained tree. The
// prior run must have set Options.RetainECO. An empty delta reproduces the
// prior outcome bit-identically; see DESIGN.md §4 for the full contract.
func SynthesizeECO(prev *Outcome, d ECODelta, opt Options) (*Outcome, error) {
	return core.SynthesizeECO(prev, d, opt)
}

// SynthesizeECOContext is SynthesizeECO with cancellation.
func SynthesizeECOContext(ctx context.Context, prev *Outcome, d ECODelta, opt Options) (*Outcome, error) {
	return core.SynthesizeECOContext(ctx, prev, d, opt)
}

// ApplyECODelta computes the post-delta placement and the old→new sink
// index mapping (-1 for removed sinks) without synthesizing anything. The
// delta is validated against the placement first: out-of-range or
// duplicate edits return an error instead of silently not applying.
func ApplyECODelta(sinks []Point, d ECODelta) ([]Point, []int, error) {
	if err := d.Validate(len(sinks)); err != nil {
		return nil, nil, err
	}
	newSinks, oldToNew := eco.Apply(sinks, d)
	return newSinks, oldToNew, nil
}

// Corner is one named PVT corner: multiplicative derating factors on the
// technology's delay-relevant axes (wire RC, buffer R/C/intrinsic and the
// derived NLDM table, nTSV RC, sink pin cap).
type Corner = corner.Corner

// CornerReport is a multi-corner sign-off: per-corner Metrics in corner
// order plus the cross-corner summary (worst-corner skew and latency,
// latency spread, max per-sink divergence).
type CornerReport = corner.Report

// SignoffCorners returns the built-in slow/typ/fast ASAP7 sign-off set.
func SignoffCorners() []Corner { return corner.Presets() }

// CornerByName resolves a built-in corner preset ("slow", "typ", "fast").
func CornerByName(name string) (Corner, error) { return corner.ByName(name) }

// EvaluateCorners signs a finished clock tree off across PVT corners,
// fanning the per-corner evaluations out over `workers` (0 = all CPUs).
// Results are bit-identical for every worker count and corner order; set
// Options.Corners instead to run sign-off as part of Synthesize.
func EvaluateCorners(t *Tree, tc *Tech, corners []Corner, workers int) (*CornerReport, error) {
	return corner.Evaluate(context.Background(), t, tc, corners, corner.Options{Workers: workers})
}

// Evaluate computes metrics for any (possibly externally built) clock tree
// using the Elmore model.
func Evaluate(t *Tree, tc *Tech) (*Metrics, error) {
	return eval.New(tc, eval.Elmore).Evaluate(t)
}

// EvaluateNLDM computes metrics with NLDM buffer tables and PERI slew
// propagation (the paper's sign-off-style evaluation mode).
func EvaluateNLDM(t *Tree, tc *Tech) (*Metrics, error) {
	return eval.New(tc, eval.NLDM).Evaluate(t)
}

// Placement is a benchmark instance: die, clock root and sink positions.
type Placement = bench.Placement

// Benchmarks returns the IDs of the built-in Table II designs (C1..C5).
func Benchmarks() []string {
	var out []string
	for _, d := range bench.Suite() {
		out = append(out, d.ID)
	}
	return out
}

// GenerateBenchmark synthesizes the named Table II design (by ID or name)
// with a deterministic seed.
func GenerateBenchmark(id string, seed int64) (*Placement, error) {
	d, err := bench.ByID(id)
	if err != nil {
		return nil, err
	}
	return bench.Generate(d, seed)
}

// ParseDEF reads a placed DEF and extracts the clock root and sinks.
func ParseDEF(r io.Reader) (*Placement, error) {
	f, err := def.Parse(r)
	if err != nil {
		return nil, err
	}
	return bench.FromDEF(f)
}

// WriteDEF emits a placement as DEF.
func WriteDEF(p *Placement, w io.Writer) error {
	if p == nil {
		return fmt.Errorf("dscts: nil placement")
	}
	return p.ToDEF().Write(w)
}

// OpenROADBaseline builds the TritonCTS-style front-side buffered clock
// tree used as the SOTA comparison point in Table III.
func OpenROADBaseline(root Point, sinks []Point, tc *Tech) (*Tree, error) {
	return baseline.OpenROADTree(root, sinks, tc, baseline.OpenROADOptions{Seed: 7})
}

// FlipVeloso applies the post-CTS back-side method of Veloso et al. [2] to
// a buffered tree in place (flip everything above the leaf level),
// returning the number of nTSVs inserted.
func FlipVeloso(t *Tree) (int, error) { return baseline.Veloso(t) }

// FlipByFanout applies Bethur et al. [7]: flip nets driving at least
// `threshold` sinks.
func FlipByFanout(t *Tree, threshold int) (int, error) {
	return baseline.FanoutFlip(t, threshold)
}

// FlipByCriticality applies Bethur et al. [6]: flip the paths feeding the
// worst `fraction` of sinks by delay.
func FlipByCriticality(t *Tree, tc *Tech, fraction float64) (int, error) {
	return baseline.CriticalFlip(t, tc, fraction)
}

// DSEPoint is one explored solution of the design-space exploration flow.
type DSEPoint = dse.Point

// ExploreFanout sweeps the DSE fanout threshold (Sec. III-E), returning one
// point per threshold. The caller's opt (workers, weights, side mode, skew
// refinement, …) applies to every sweep point; opt.FanoutThreshold itself
// is overridden by each swept value.
func ExploreFanout(root Point, sinks []Point, tc *Tech, thresholds []int, opt Options) ([]DSEPoint, error) {
	return dse.SweepFanout(root, sinks, tc, thresholds, opt)
}

// ExploreFanoutContext is ExploreFanout with cancellation threaded into
// every sweep point's synthesis.
func ExploreFanoutContext(ctx context.Context, root Point, sinks []Point, tc *Tech, thresholds []int, opt Options) ([]DSEPoint, error) {
	return dse.SweepFanoutContext(ctx, root, sinks, tc, thresholds, opt)
}

// ParetoLatency extracts the non-dominated front over
// (#buffers+#nTSVs, latency).
func ParetoLatency(pts []DSEPoint) []DSEPoint {
	return dse.Pareto(pts, dse.Resources, dse.Latency)
}

// ParetoSkew extracts the non-dominated front over
// (#buffers+#nTSVs, skew).
func ParetoSkew(pts []DSEPoint) []DSEPoint {
	return dse.Pareto(pts, dse.Resources, dse.Skew)
}

// DSECornerPoint is one explored solution evaluated across PVT corners.
type DSECornerPoint = dse.CornerPoint

// ExploreFanoutCorners is ExploreFanout with multi-corner sign-off: each
// threshold's tree is evaluated at every corner, and cross-corner Pareto
// extraction (ParetoCornersLatency/ParetoCornersSkew) treats a point as
// dominated only if no corner worsens.
func ExploreFanoutCorners(ctx context.Context, root Point, sinks []Point, tc *Tech, thresholds []int, corners []Corner, opt Options) ([]DSECornerPoint, error) {
	return dse.SweepFanoutCorners(ctx, root, sinks, tc, thresholds, corners, opt)
}

// ParetoCornersLatency extracts the cross-corner front over
// (#buffers+#nTSVs, latency): dominance requires being no worse at every
// corner.
func ParetoCornersLatency(pts []DSECornerPoint) []DSECornerPoint {
	return dse.ParetoCorners(pts, dse.Resources, dse.Latency)
}

// ParetoCornersSkew extracts the cross-corner front over
// (#buffers+#nTSVs, skew).
func ParetoCornersSkew(pts []DSECornerPoint) []DSECornerPoint {
	return dse.ParetoCorners(pts, dse.Resources, dse.Skew)
}

// PowerParams are the operating conditions for clock power estimation.
type PowerParams = power.Params

// PowerBreakdown decomposes clock dynamic power by component.
type PowerBreakdown = power.Breakdown

// DefaultPowerParams returns 1 GHz at 0.7 V.
func DefaultPowerParams() PowerParams { return power.DefaultParams() }

// EstimatePower computes the clock-tree dynamic power breakdown.
func EstimatePower(t *Tree, tc *Tech, p PowerParams) (*PowerBreakdown, error) {
	return power.Estimate(t, tc, p)
}

// LegalizedCells is the legalization outcome (cell placements and
// displacement statistics).
type LegalizedCells = legal.Result

// LegalizeCells snaps the tree's inserted buffers and nTSVs onto the
// row/site grid, avoiding macros and overlaps.
func LegalizeCells(t *Tree, die BBox, macros []BBox, tc *Tech) (*LegalizedCells, error) {
	return legal.Legalize(t, die, macros, tc, legal.Options{})
}

// BBox is an axis-aligned rectangle in µm.
type BBox = geom.BBox

// ExportDEF legalizes the tree's cells and writes the synthesized clock —
// sinks, buffers, nTSVs and per-stage nets — as a placed DEF.
func ExportDEF(w io.Writer, t *Tree, die BBox, macros []BBox, tc *Tech, designName string) (*LegalizedCells, error) {
	return export.WriteDEF(w, t, die, macros, tc, export.Options{DesignName: designName})
}

// RenderSVG draws the double-side clock tree (front wires blue, back wires
// red, buffers green, nTSVs orange) for visual inspection.
func RenderSVG(w io.Writer, t *Tree, die BBox, macros []BBox, title string) error {
	return viz.WriteSVG(w, t, die, macros, viz.Options{Title: title})
}
