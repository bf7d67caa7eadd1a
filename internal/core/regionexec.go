package core

// The region execution seam of the partitioned pipeline (DESIGN.md §9).
// One region's synthesis — route→insert→refine over its local sink slice
// plus the hierarchical summary the stitch consumes — is an independent,
// pure unit of work: it reads only (anchor, local sinks, tech, knobs) and
// its result is deterministic in the worker count. RunRegion packages that
// unit behind an exported boundary so a cluster-mode daemon can execute it
// on a remote peer (serve's POST /internal/region) and splice the wire
// result back into the local stitch, bit-identically to local execution.

import (
	"context"
	"fmt"
	"time"

	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

// RegionWork is one region's unit of work in a partitioned run: the tap
// anchor and the region-local sink placement. Sinks are region-local
// coordinates; the mapping back to global sink indices stays with the
// caller, so the unit is self-contained and wire-encodable.
type RegionWork struct {
	ID     int
	Anchor geom.Point
	Sinks  []geom.Point
}

// RegionOut is the result of one region's synthesis: the buffered region
// tree plus the hierarchical summary the stitch stage consumes, and the
// region's share of the DP statistics and per-phase work times. Sum.Sinks
// is left nil — the caller rebinds the global sink indices. All fields are
// plain data (gob-encodable), which is what lets a region execute on a
// remote peer.
type RegionOut struct {
	Tree *ctree.Tree
	Sum  *eval.RegionEval

	DPNodes     int
	DPSolutions int
	DPMerged    int

	RouteTime  time.Duration
	InsertTime time.Duration
	RefineTime time.Duration
}

// RegionExecFunc executes one region of a partitioned run. Options.
// RegionExec installs one; the partitioned pipeline then routes every
// region through it instead of the built-in local path. Implementations
// MUST be result-equivalent to RunRegion with the same (work, tech,
// options) — the engine's determinism contract extends across the seam,
// and the cluster determinism suite pins it.
type RegionExecFunc func(ctx context.Context, w RegionWork) (*RegionOut, error)

// RunRegion executes one region locally: the exact per-region body of the
// partitioned pipeline (the full route→insert→refine stack, then the
// hierarchical region summary). workers bounds the region's inner
// parallelism; results are bit-identical in it. opt's scheduling hooks
// (Progress, RegionExec) are ignored, while opt.Faults is honored, so fault
// injection fires on whichever node actually executes.
func RunRegion(ctx context.Context, w RegionWork, tc *tech.Tech, opt Options, workers int) (*RegionOut, error) {
	if workers < 1 {
		workers = 1
	}
	opt.Progress = nil
	st, err := runStages(ctx, w.Anchor, w.Sinks, tc, opt, workers)
	if err != nil {
		return nil, err
	}
	sum, err := eval.New(tc, eval.Elmore).SummarizeRegion(st.tree)
	if err != nil {
		return nil, err
	}
	return &RegionOut{
		Tree: st.tree, Sum: sum,
		DPNodes: st.dp.Nodes, DPSolutions: st.dp.Solutions, DPMerged: st.dp.Merged,
		RouteTime: st.routeTime, InsertTime: st.insertTime, RefineTime: st.refineTime,
	}, nil
}

// Validate rejects a result that cannot be stitched: a missing tree or
// summary, a structurally broken tree, sink nodes other than exactly one
// per region-local index in [0, wantSinks), or sink delays other than
// exactly one per such index. A remote peer speaking a different build, or
// a malformed reply, must be an error here rather than a panic or a failed
// job in the stitch.
func (ro *RegionOut) Validate(wantSinks int) error {
	if ro == nil || ro.Tree == nil || ro.Sum == nil || ro.Sum.Metrics == nil {
		return fmt.Errorf("region result incomplete")
	}
	if err := ro.Tree.Validate(); err != nil {
		return fmt.Errorf("region result: %w", err)
	}
	delays := ro.Sum.Metrics.SinkDelays
	if len(delays) != wantSinks {
		return fmt.Errorf("region result has %d sink delays, want %d", len(delays), wantSinks)
	}
	seen := make([]bool, wantSinks)
	got := 0
	for i := range ro.Tree.Nodes {
		n := &ro.Tree.Nodes[i]
		if n.Kind != ctree.KindSink {
			continue
		}
		if n.SinkIdx < 0 || n.SinkIdx >= wantSinks || seen[n.SinkIdx] {
			return fmt.Errorf("region result: sink node %d has index %d, want a distinct one in [0, %d)", i, n.SinkIdx, wantSinks)
		}
		if _, ok := delays[n.SinkIdx]; !ok {
			return fmt.Errorf("region result has no delay for sink %d", n.SinkIdx)
		}
		seen[n.SinkIdx] = true
		got++
	}
	if got != wantSinks {
		return fmt.Errorf("region result has %d sinks, want %d", got, wantSinks)
	}
	return nil
}
