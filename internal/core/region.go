package core

// The partition-parallel mega-scale pipeline (DESIGN.md §3). The monolithic
// five-phase flow holds every sink, cluster and DP state in memory at once;
// at million-sink scale several of its phases grow superlinearly. This file
// splits the die into capacity-bounded regions (internal/partition), runs
// the full clustering→DME→insertion→refinement stack per region — regions
// fan out over the shared worker budget, each region's inner phases run on
// its slice of that budget — and stitches the region roots under a buffered
// top tree with a cross-region skew-balancing pass. Evaluation composes the
// per-region reports hierarchically (internal/eval) instead of re-walking
// the merged tree.
//
// Determinism contract: the partition, each region's synthesis, the stitch
// and the composed metrics are all pure functions of (placement, tech,
// options) — never of the worker count or the order regions happen to
// finish in. Regions are processed into slots indexed by region ID and the
// stitch consumes them in ID order, so Workers=1 and Workers=N produce
// bit-identical trees, and a permuted region list produces the same result
// as the canonical one.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"dscts/internal/cluster"
	"dscts/internal/corner"
	"dscts/internal/ctree"
	"dscts/internal/dme"
	"dscts/internal/eval"
	"dscts/internal/fault"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/par"
	"dscts/internal/partition"
	"dscts/internal/refine"
	"dscts/internal/tech"
)

// RegionStat is one region's slice of a partitioned run, in Outcome.Regions.
type RegionStat struct {
	// ID is the partition region ID.
	ID int
	// Sinks is the region's sink count.
	Sinks int
	// Buffers, NTSVs and WL are the region-internal resource totals.
	Buffers int
	NTSVs   int
	WL      float64
	// Latency and Skew are region-internal (from the region tap), in ps.
	Latency float64
	Skew    float64
	// Arrival is the tap arrival time through the stitched top tree (ps);
	// Arrival+Latency is the region's worst global sink delay.
	Arrival float64
	// Time is the region's synthesis wall time.
	Time time.Duration
}

// stages bundles the routed, inserted and refined tree of one synthesis
// scope — the whole net for the monolithic flow, or one region.
type stages struct {
	tree   *ctree.Tree
	dual   *cluster.Dual
	dp     *insert.Result
	refine *refine.Report

	routeTime, insertTime, refineTime time.Duration
}

// runStages executes the route→insert→refine sequence on one scope with the
// given worker budget. It is the monolithic flow minus evaluation, reused
// verbatim per region by the partitioned pipeline; emit may be nil.
func runStages(ctx context.Context, rootPos geom.Point, sinks []geom.Point, tc *tech.Tech, opt Options, workers int, emit func(Phase, bool, time.Duration)) (*stages, error) {
	if emit == nil {
		emit = func(Phase, bool, time.Duration) {}
	}
	// Defaults.
	d := opt.Dual
	if d.HighSize == 0 && d.LowSize == 0 {
		def := cluster.DefaultDualOptions()
		d.HighSize, d.LowSize, d.MaxIter = def.HighSize, def.LowSize, def.MaxIter
		d.Seed = def.Seed
	}
	if d.MaxIter == 0 {
		d.MaxIter = 40
	}
	d.Workers = workers
	front := tc.Front()
	if d.CapOf == nil {
		d.CapOf = func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) }
		d.CapLimit = 0.6 * tc.Buf.MaxCap
	}
	maxEdge := opt.MaxTrunkEdge
	if maxEdge <= 0 {
		// Keep per-segment wire cap well under the buffer budget.
		maxEdge = 40 // µm: finer than the optimal buffer spacing so the DP decides
	}

	st := &stages{}

	// Phase 1: hierarchical clock routing.
	if err := opt.Faults.Check(ctx, fault.PointRoute); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	emit(PhaseRoute, false, 0)
	t0 := time.Now()
	dual, err := cluster.DualLevel(sinks, d)
	if err != nil {
		return nil, fmt.Errorf("core: clustering: %w", err)
	}
	st.dual = dual
	var tree *ctree.Tree
	if opt.UseFlatDME {
		tree, err = dme.FlatRoute(rootPos, sinks, dual, tc, dme.HierOptions{MaxTrunkEdge: maxEdge})
	} else {
		tree, err = dme.HierarchicalRoute(rootPos, sinks, dual, tc, dme.HierOptions{MaxTrunkEdge: maxEdge})
	}
	if err != nil {
		return nil, fmt.Errorf("core: routing: %w", err)
	}
	st.tree = tree
	st.routeTime = time.Since(t0)
	emit(PhaseRoute, true, st.routeTime)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Phase 2: concurrent buffer and nTSV insertion.
	if err := opt.Faults.Check(ctx, fault.PointInsert); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	emit(PhaseInsert, false, 0)
	t1 := time.Now()
	cfg := insert.DefaultConfig(tc)
	if opt.Alpha != 0 || opt.Beta != 0 || opt.Gamma != 0 {
		cfg.Alpha, cfg.Beta, cfg.Gamma = opt.Alpha, opt.Beta, opt.Gamma
	}
	cfg.SelectMinLatency = opt.SelectMinLatency
	cfg.KeepRootSet = opt.KeepRootSet
	cfg.DiversePruning = opt.DiversePruning
	cfg.MaxPerSide = opt.MaxPerSide
	cfg.Workers = workers
	switch {
	case opt.Mode == SingleSide:
		cfg.ModeOf = func(treeID, fanout int) insert.Mode { return insert.ModeIntra }
	case opt.FanoutThreshold > 0:
		th := opt.FanoutThreshold
		cfg.ModeOf = func(treeID, fanout int) insert.Mode {
			if fanout >= th {
				return insert.ModeFull
			}
			return insert.ModeIntra
		}
	}
	dp, err := insert.RunContext(ctx, tree, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: insertion: %w", err)
	}
	st.dp = dp
	st.insertTime = time.Since(t1)
	emit(PhaseInsert, true, st.insertTime)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Phase 3: skew refinement.
	if !opt.SkipRefine {
		if err := opt.Faults.Check(ctx, fault.PointRefine); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		emit(PhaseRefine, false, 0)
		t2 := time.Now()
		rp := opt.Refine
		if rp.TriggerPct == 0 {
			rp = refine.DefaultParams()
		}
		rr, err := refine.RefineContext(ctx, tree, tc, rp)
		if err != nil {
			return nil, fmt.Errorf("core: refinement: %w", err)
		}
		st.refine = rr
		st.refineTime = time.Since(t2)
		emit(PhaseRefine, true, st.refineTime)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return st, nil
}

// synthesizePartitioned is the partition-parallel pipeline entry, reached
// from SynthesizeContext when the placement overflows the region capacity.
func synthesizePartitioned(ctx context.Context, rootPos geom.Point, sinks []geom.Point, tc *tech.Tech, opt Options, start time.Time) (*Outcome, error) {
	emit := func(ph Phase, done bool, elapsed time.Duration) {
		if opt.Progress != nil {
			opt.Progress(Progress{Phase: ph, Done: done, Elapsed: elapsed})
		}
	}
	emit(PhasePartition, false, 0)
	tp := time.Now()
	regions, err := partition.Split(sinks, opt.Partition)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out, err := synthesizeRegions(ctx, rootPos, sinks, tc, opt, regions, tp)
	if err != nil {
		return nil, err
	}
	out.TotalTime = time.Since(start)
	return out, nil
}

// synthesizeRegions runs the region pipeline over an explicit region list.
// The list is canonicalized by region ID first, so any permutation of the
// same regions produces an identical result (TestRegionOrderInvariance).
func synthesizeRegions(ctx context.Context, rootPos geom.Point, sinks []geom.Point, tc *tech.Tech, opt Options, regions []partition.Region, tPartition time.Time) (*Outcome, error) {
	regions = append([]partition.Region(nil), regions...)
	sort.Slice(regions, func(a, b int) bool { return regions[a].ID < regions[b].ID })
	if err := partition.Validate(regions, len(sinks)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	emit := func(ph Phase, done bool, elapsed time.Duration) {
		if opt.Progress != nil {
			opt.Progress(Progress{Phase: ph, Done: done, Elapsed: elapsed})
		}
	}
	out := &Outcome{}

	// Region fan-out: the outer loop distributes the worker budget across
	// regions, each region's inner phases run on an equal slice of it. The
	// outer fan-out is additionally capped at the physical core count —
	// beyond it, extra in-flight regions only inflate peak memory and GC
	// pressure without adding parallelism. The engine is deterministic in
	// every worker count, so the split affects wall-clock only, never
	// results.
	workers := par.N(opt.Workers)
	outer := workers
	if cores := runtime.GOMAXPROCS(0); outer > cores {
		outer = cores
	}
	if opt.RegionExec != nil && outer < len(regions) {
		// An installed executor schedules the regions itself (peer
		// dispatchers); capping the fan-out at the local core count
		// would serialize its dispatch, so every region is offered at
		// once — the extra goroutines just wait on results.
		outer = len(regions)
	}
	inner := workers / len(regions)
	if inner < 1 {
		inner = 1
	}
	type regionRun struct {
		out  *RegionOut
		stat RegionStat
		err  error
	}
	runs := make([]regionRun, len(regions))
	var done atomic.Int64
	par.ForEach(outer, len(regions), func(i int) {
		r := regions[i]
		local := make([]geom.Point, len(r.Sinks))
		for j, si := range r.Sinks {
			local[j] = sinks[si]
		}
		t0 := time.Now()
		w := RegionWork{ID: r.ID, Anchor: r.Anchor, Sinks: local}
		var ro *RegionOut
		var err error
		if opt.RegionExec != nil {
			ro, err = opt.RegionExec(ctx, w)
			if err == nil {
				err = ro.Validate(len(r.Sinks))
			}
		} else {
			ro, err = RunRegion(ctx, w, tc, opt, inner)
		}
		if err != nil {
			runs[i].err = fmt.Errorf("region %d: %w", r.ID, err)
			return
		}
		sum := ro.Sum
		sum.Sinks = r.Sinks
		runs[i] = regionRun{out: ro, stat: RegionStat{
			ID: r.ID, Sinks: len(r.Sinks),
			Buffers: sum.Metrics.Buffers, NTSVs: sum.Metrics.NTSVs, WL: sum.Metrics.WL,
			Latency: sum.Metrics.Latency, Skew: sum.Metrics.Skew,
			Time: time.Since(t0),
		}}
		if opt.Progress != nil {
			opt.Progress(Progress{Phase: PhasePartition, Point: int(done.Add(1)), Total: len(regions)})
		}
	})
	sums := make([]*eval.RegionEval, len(regions))
	trees := make([]*ctree.Tree, len(regions))
	var dpTotal insert.Result
	for i := range runs {
		if runs[i].err != nil {
			return nil, fmt.Errorf("core: %w", runs[i].err)
		}
		sums[i] = runs[i].out.Sum
		trees[i] = runs[i].out.Tree
		out.Regions = append(out.Regions, runs[i].stat)
		out.RouteTime += runs[i].out.RouteTime
		out.InsertTime += runs[i].out.InsertTime
		out.RefineTime += runs[i].out.RefineTime
		dpTotal.Nodes += runs[i].out.DPNodes
		dpTotal.Solutions += runs[i].out.DPSolutions
		dpTotal.Merged += runs[i].out.DPMerged
	}
	out.DP = &dpTotal
	out.PartitionTime = time.Since(tPartition)
	emit(PhasePartition, true, out.PartitionTime)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if err := stitchAndCompose(ctx, rootPos, regions, trees, sums, tc, opt, out, emit); err != nil {
		return nil, err
	}
	if opt.RetainECO {
		out.Retained = &ECOState{
			Root: rootPos, Sinks: sinks, Tech: tc, Opt: retainedOptions(opt),
			Regions: regions, Trees: trees, Sums: sums,
		}
	}
	return out, nil
}

// stitchAndCompose is the shared tail of the partitioned pipeline and of
// partitioned incremental (ECO) re-synthesis: it stitches the top tree over
// the region taps, grafts the region trees into one validated clock tree,
// composes the metrics hierarchically and runs multi-corner sign-off. The
// caller has already filled out.Regions (region ID order) and the per-phase
// work times; the region trees are only read, never mutated, so retained
// trees may be shared across outcomes.
func stitchAndCompose(ctx context.Context, rootPos geom.Point, regions []partition.Region, trees []*ctree.Tree, sums []*eval.RegionEval, tc *tech.Tech, opt Options, out *Outcome, emit func(Phase, bool, time.Duration)) error {
	if err := opt.Faults.Check(ctx, fault.PointStitch); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	emit(PhaseStitch, false, 0)
	ts := time.Now()
	ev := eval.New(tc, eval.Elmore)
	top, taps, err := stitchTop(rootPos, regions, sums, tc, opt, ev)
	if err != nil {
		return err
	}
	arrivals, err := ev.TopDelays(top, taps, sums)
	if err != nil {
		return fmt.Errorf("core: stitch: %w", err)
	}
	for i := range out.Regions {
		out.Regions[i].Arrival = arrivals[i]
	}
	merged, err := graftRegions(top, taps, trees, regions)
	if err != nil {
		return err
	}
	if err := merged.Validate(); err != nil {
		return fmt.Errorf("core: stitched tree invalid: %w", err)
	}
	out.Tree = merged
	out.StitchTime = time.Since(ts)
	emit(PhaseStitch, true, out.StitchTime)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %w", err)
	}

	// Evaluation composes the region reports hierarchically — no walk of
	// the merged tree (TestComposeHierMatchesFullEval pins the equality).
	emit(PhaseEval, false, 0)
	t3 := time.Now()
	m, err := ev.ComposeHier(top, taps, sums)
	if err != nil {
		return fmt.Errorf("core: evaluation: %w", err)
	}
	out.Metrics = m
	emit(PhaseEval, true, time.Since(t3))

	if len(opt.Corners) > 0 {
		if err := signoffCorners(ctx, out, tc, opt, emit); err != nil {
			return err
		}
	}
	return nil
}

// stitchTop builds the balanced top tree: DME over region taps, a
// deterministic cap-legality buffering pass, and the iterative cross-region
// skew-balancing snake pass.
func stitchTop(rootPos geom.Point, regions []partition.Region, sums []*eval.RegionEval, tc *tech.Tech, opt Options, ev *eval.Evaluator) (*ctree.Tree, map[int]int, error) {
	maxEdge := opt.MaxTrunkEdge
	if maxEdge <= 0 {
		maxEdge = 40
	}
	leaves := make([]dme.Leaf, len(regions))
	for i, r := range regions {
		// Upstream, a tap is its buffer's input cap; below it the region is
		// ready after the buffer's intrinsic delay plus the region-internal
		// worst path (which carries the drive term over the root load).
		leaves[i] = dme.Leaf{
			Pos:   r.Anchor,
			Cap:   tc.Buf.InputCap,
			Delay: tc.Buf.Intrinsic + sums[i].MaxDelay,
		}
	}
	top, taps, err := dme.TopRoute(rootPos, leaves, tc, dme.HierOptions{MaxTrunkEdge: maxEdge})
	if err != nil {
		return nil, nil, fmt.Errorf("core: stitch: %w", err)
	}
	bufferTopTree(top, tc)
	if err := balanceRegions(top, taps, sums, tc, ev); err != nil {
		return nil, nil, fmt.Errorf("core: stitch: %w", err)
	}
	return top, taps, nil
}

// bufferTopTree inserts node buffers on the top tree so no stage drives more
// than the clustering cap budget (0.6·MaxCap, the same limit leaf nets
// honor). One bottom-up postorder pass: a node whose unshielded subtree load
// exceeds the limit gets a buffer, shielding it from its parent's stage. Tap
// nodes are already buffered by construction. Deterministic: postorder over
// a fixed tree, and buffers are only ever added — re-running after the
// balance pass grows edge lengths re-checks the invariant incrementally.
// Returns the number of buffers added.
func bufferTopTree(top *ctree.Tree, tc *tech.Tech) int {
	front, buf := tc.Front(), tc.Buf
	limit := 0.6 * buf.MaxCap
	added := 0
	sub := make([]float64, top.Len())
	top.PostOrder(func(id int) {
		n := &top.Nodes[id]
		load := 0.0
		for _, c := range n.Children {
			load += front.UnitCap * top.EdgeLen(c)
			if top.Nodes[c].BufferAtNode {
				load += buf.InputCap
			} else {
				load += sub[c]
			}
		}
		sub[id] = load
		if id != top.Root() && !n.BufferAtNode && load > limit {
			n.BufferAtNode = true
			added++
		}
	})
	return added
}

// balanceRegions aligns the regions' worst sink delays by snaking the tap
// edges: the slowest region sets the target, every other tap edge gets the
// detour wirelength whose Elmore delay closes its gap. Adding wire to a tap
// edge slows its own region through the full upstream stage resistance (the
// new cap is seen by every resistance between the stage driver and the tap)
// and also shifts regions sharing those resistances, so the pass iterates
// with hierarchically composed arrivals — O(top tree) per iteration, regions
// never re-walked — until the residual misalignment is negligible. Each
// iteration re-runs the cap-legality buffering: detour wire adds stage cap,
// and a stage pushed past the budget gets a shielding buffer, whose delay
// the next iteration's arrivals absorb.
func balanceRegions(top *ctree.Tree, taps map[int]int, sums []*eval.RegionEval, tc *tech.Tech, ev *eval.Evaluator) error {
	front, buf := tc.Front(), tc.Buf
	r, c := front.UnitRes, front.UnitCap
	tapOf := make([]int, len(sums))
	for id, ri := range taps {
		tapOf[ri] = id
	}
	const (
		maxIter = 24
		tolPS   = 1e-6
	)
	// Stage resistance from each node's driver to the node's arrival
	// point. Only tap PARENTS are consumed below; recomputed per iteration
	// because the buffering pass can open new stages.
	racc := make([]float64, top.Len())
	for iter := 0; iter < maxIter; iter++ {
		top.PreOrder(func(id int) {
			n := &top.Nodes[id]
			if id == top.Root() {
				racc[id] = buf.DriveRes // root source resistance
			} else {
				racc[id] = racc[n.Parent] + r*top.EdgeLen(id)
			}
			if n.BufferAtNode {
				// A buffer opens a new stage; cap added below it is driven
				// by its output resistance.
				racc[id] = buf.DriveRes
			}
		})
		arrivals, err := ev.TopDelays(top, taps, sums)
		if err != nil {
			return err
		}
		target := math.Inf(-1)
		for ri := range sums {
			target = math.Max(target, arrivals[ri]+sums[ri].MaxDelay)
		}
		worst := 0.0
		for ri := range sums {
			gap := target - (arrivals[ri] + sums[ri].MaxDelay)
			worst = math.Max(worst, gap)
			if gap <= tolPS {
				continue
			}
			// First-order exact delay of e extra µm on the tap edge:
			//   Δd(e) = R·c·e + r·e·(c·(L+e) + c·L + K)
			// with R the upstream stage resistance, L the current edge
			// length and K the tap buffer's input cap. Solve the quadratic
			// r·c·e² + (R·c + r·(2·c·L + K))·e − gap = 0 for e ≥ 0.
			id := tapOf[ri]
			L := top.EdgeLen(id)
			R := racc[top.Nodes[id].Parent]
			b := R*c + r*(2*c*L+buf.InputCap)
			e := (-b + math.Sqrt(b*b+4*r*c*gap)) / (2 * r * c)
			if e > 0 {
				top.Nodes[id].SnakeExtra += e
			}
		}
		added := bufferTopTree(top, tc)
		if worst <= tolPS && added == 0 {
			return nil
		}
	}
	return nil
}

// graftRegions deep-copies every region tree under its tap node, remapping
// sink indices back to the original placement and offsetting cluster
// indices so they stay unique in the merged tree. The region root collapses
// into the tap; a region root that itself carries a node buffer keeps it on
// a zero-length child so the merged RC network matches the region-local one
// element for element.
func graftRegions(top *ctree.Tree, taps map[int]int, trees []*ctree.Tree, regions []partition.Region) (*ctree.Tree, error) {
	// The final size is known up front: every region node grafts exactly
	// once (plus at most one buffer carrier per region root). Pre-sizing
	// keeps the million-node lane from append-doubling through ~2x its
	// final footprint in zero+copy traffic.
	total := top.Len() + len(regions)
	for _, rt := range trees {
		total += rt.Len()
	}
	merged := top.CloneSized(total)
	clusterBase := 0
	// Graft in region ID order for a deterministic node numbering.
	tapOf := make([]int, len(regions))
	for id, ri := range taps {
		tapOf[ri] = id
	}
	for ri, rt := range trees {
		tap := tapOf[ri]
		rootID := rt.Root()
		idMap := make([]int, rt.Len())
		idMap[rootID] = tap
		if rt.Nodes[rootID].BufferAtNode {
			b := merged.Add(tap, ctree.KindSteiner, rt.Nodes[rootID].Pos)
			merged.Nodes[b].BufferAtNode = true
			idMap[rootID] = b
		}
		maxCluster := -1
		var graftErr error
		// PreOrder guarantees parents map before children even after edge
		// splitting re-parented nodes (indices alone are not top-down).
		rt.PreOrder(func(i int) {
			if i == rootID || graftErr != nil {
				return
			}
			n := &rt.Nodes[i]
			parent := idMap[n.Parent]
			var id int
			switch n.Kind {
			case ctree.KindSink:
				if n.SinkIdx < 0 || n.SinkIdx >= len(regions[ri].Sinks) {
					graftErr = fmt.Errorf("core: graft: region %d sink index %d out of range", ri, n.SinkIdx)
					return
				}
				id = merged.AddSink(parent, n.Pos, regions[ri].Sinks[n.SinkIdx])
			case ctree.KindCentroid:
				id = merged.AddCentroid(parent, n.Pos, clusterBase+n.ClusterIdx)
				if n.ClusterIdx > maxCluster {
					maxCluster = n.ClusterIdx
				}
			case ctree.KindSteiner:
				id = merged.Add(parent, ctree.KindSteiner, n.Pos)
			default:
				graftErr = fmt.Errorf("core: graft: region %d has nested root node %d", ri, i)
				return
			}
			// The graft preserves fan-out exactly, so reserve it: sink
			// appends under wide centroids then stay inside the carved
			// block instead of re-growing the child slice.
			merged.ReserveChildren(id, len(n.Children))
			m := &merged.Nodes[id]
			m.Wiring = n.Wiring
			m.SnakeExtra = n.SnakeExtra
			m.BufferAtNode = n.BufferAtNode
			idMap[i] = id
		})
		if graftErr != nil {
			return nil, graftErr
		}
		clusterBase += maxCluster + 1
	}
	return merged, nil
}

// signoffCorners runs the multi-corner evaluation on a finished outcome.
func signoffCorners(ctx context.Context, out *Outcome, tc *tech.Tech, opt Options, emit func(Phase, bool, time.Duration)) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	emit(PhaseCorners, false, 0)
	t4 := time.Now()
	copt := corner.Options{Workers: opt.Workers}
	if opt.Progress != nil {
		copt.OnCorner = func(done, total int) {
			opt.Progress(Progress{Phase: PhaseCorners, Point: done, Total: total})
		}
	}
	rep, err := corner.Evaluate(ctx, out.Tree, tc, opt.Corners, copt)
	if err != nil {
		return fmt.Errorf("core: corners: %w", err)
	}
	out.Corners = rep
	out.CornersTime = time.Since(t4)
	emit(PhaseCorners, true, out.CornersTime)
	return nil
}
