package core

// Incremental (ECO) re-synthesis: given a prior Outcome that retained its
// synthesis state (Options.RetainECO) and a Delta of sink edits, re-run only
// the dirty scopes — affected regions under partitioning, affected low-level
// clusters monolithically — through the same runStages pipeline, splice the
// fresh subtrees into the retained tree, and re-evaluate incrementally
// (hierarchical composition for regions, one flat what-if pass
// monolithically). DESIGN.md §4 states the dirty-set semantics and the
// splice contract; the correctness contract is:
//
//   - an empty delta reproduces the prior outcome bit-identically;
//   - results are deterministic in the worker count (Workers=1 ≡ Workers=N);
//   - ECO metrics track a full re-synthesis of the post-delta placement
//     within the pinned tolerances of TestECOVsFullEquivalence — exact
//     equality is impossible by construction, because a full run re-derives
//     the partition and clustering from the new placement while ECO
//     preserves the retained structure.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dscts/internal/ctree"
	"dscts/internal/eco"
	"dscts/internal/eval"
	"dscts/internal/fault"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/par"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// ECOState is the retained incremental-re-synthesis state of an outcome:
// the exact synthesis input plus, for a partitioned run, the per-region
// trees and summaries the next delta can splice against. Everything here is
// shared, not copied — treat it as immutable.
type ECOState struct {
	Root  geom.Point
	Sinks []geom.Point
	Tech  *tech.Tech
	// Opt is the prior run's options with the callback stripped; an ECO run
	// inherits every synthesis knob from here, so a chained delta can never
	// silently re-synthesize dirty scopes under different settings than the
	// retained clean ones.
	Opt Options

	// Regions, Trees and Sums hold the partitioned pipeline's per-region
	// state in region ID order; all nil for a monolithic prior.
	Regions []partition.Region
	Trees   []*ctree.Tree
	Sums    []*eval.RegionEval
}

// ECOStats summarizes an incremental run on its Outcome.
type ECOStats struct {
	// DirtyScopes of TotalScopes were re-synthesized; a scope is a
	// partition region or, monolithically, a low-level leaf cluster.
	DirtyScopes int `json:"dirty_scopes"`
	TotalScopes int `json:"total_scopes"`
	// Partitioned reports which pipeline the prior outcome came from.
	Partitioned bool `json:"partitioned"`
	// ReusedSinks counts sinks whose subtrees were retained unchanged.
	ReusedSinks int `json:"reused_sinks"`
	// FullResynthesis marks a delta that dirtied the whole design (a
	// technology change); DirtyScopes == TotalScopes then.
	FullResynthesis bool `json:"full_resynthesis,omitempty"`
}

// retainedOptions strips the per-call callback from options headed into an
// ECOState: retaining a Progress closure would leak whatever it captures
// (jobs, requests) into long-lived caches, and a later ECO run supplies its
// own anyway.
func retainedOptions(opt Options) Options {
	opt.Progress = nil
	// Nor the region executor: retained options seed chained ECO re-runs
	// (and gob snapshots), and a cluster-mode executor must be re-installed
	// per job by the daemon that owns the peers, never revived from state.
	opt.RegionExec = nil
	return opt
}

// ValidateRetained checks that an outcome's retained state is structurally
// usable by SynthesizeECO: a valid tree with exactly one sink node per
// retained sink, metrics, a valid technology and, for a partitioned prior,
// a partition of the sinks with one valid region tree and summary per
// region. SynthesizeECO trusts its input, which normally comes straight
// from Synthesize; an outcome rebuilt from bytes (a persisted base
// snapshot) is checked here first, so a malformed one is rejected instead
// of failing every later delta against it.
func (o *Outcome) ValidateRetained() error {
	if o == nil || o.Retained == nil || o.Tree == nil {
		return fmt.Errorf("core: outcome has no retained state")
	}
	if o.Metrics == nil {
		return fmt.Errorf("core: retained outcome has no metrics")
	}
	st := o.Retained
	if st.Tech == nil {
		return fmt.Errorf("core: retained state has no tech")
	}
	if err := st.Tech.Validate(); err != nil {
		return fmt.Errorf("core: retained state: %w", err)
	}
	if err := o.Tree.Validate(); err != nil {
		return fmt.Errorf("core: retained tree: %w", err)
	}
	n := len(st.Sinks)
	seen := make([]bool, n)
	got := 0
	for i := range o.Tree.Nodes {
		nd := &o.Tree.Nodes[i]
		if nd.Kind != ctree.KindSink {
			continue
		}
		if nd.SinkIdx < 0 || nd.SinkIdx >= n || seen[nd.SinkIdx] {
			return fmt.Errorf("core: retained tree: sink node %d has index %d, want a distinct one in [0, %d)", i, nd.SinkIdx, n)
		}
		seen[nd.SinkIdx] = true
		got++
	}
	if got != n {
		return fmt.Errorf("core: retained tree has %d sinks, want %d", got, n)
	}
	if len(st.Regions) == 0 {
		return nil
	}
	if err := partition.Validate(st.Regions, n); err != nil {
		return fmt.Errorf("core: retained state: %w", err)
	}
	if len(st.Trees) != len(st.Regions) || len(st.Sums) != len(st.Regions) {
		return fmt.Errorf("core: retained state has %d regions but %d trees and %d summaries",
			len(st.Regions), len(st.Trees), len(st.Sums))
	}
	for i, r := range st.Regions {
		ro := RegionOut{Tree: st.Trees[i], Sum: st.Sums[i]}
		if err := ro.Validate(len(r.Sinks)); err != nil {
			return fmt.Errorf("core: retained region %d: %w", i, err)
		}
	}
	return nil
}

// SynthesizeECO is SynthesizeECOContext with a background context.
func SynthesizeECO(prev *Outcome, d eco.Delta, opt Options) (*Outcome, error) {
	return SynthesizeECOContext(context.Background(), prev, d, opt)
}

// SynthesizeECOContext incrementally re-synthesizes a prior outcome under a
// delta. prev must carry retained state (Options.RetainECO on the prior
// run). Of opt, only the scheduling fields are honored — Workers, Progress
// and RetainECO — every synthesis knob (mode, weights, partitioning,
// corners) comes from the retained state, overridden only by the delta's
// SetCorners/SetTech. Progress reports the re-run under PhaseECO. The
// returned outcome's DP/Refine statistics cover the re-synthesized scopes
// only; Dual is not carried.
func SynthesizeECOContext(ctx context.Context, prev *Outcome, d eco.Delta, opt Options) (*Outcome, error) {
	if prev == nil || prev.Retained == nil {
		return nil, fmt.Errorf("core: eco: outcome has no retained state (synthesize with Options.RetainECO)")
	}
	st := prev.Retained
	if err := d.Validate(len(st.Sinks)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	knobs := st.Opt
	knobs.Workers = opt.Workers
	knobs.Progress = opt.Progress
	knobs.RetainECO = opt.RetainECO
	if opt.Faults != nil {
		// Like Progress, the caller's registry wins over a retained one: the
		// service threads its live registry into chained deltas.
		knobs.Faults = opt.Faults
	}
	if len(d.SetCorners) > 0 {
		knobs.Corners = d.SetCorners
	}
	// The ECO injection point guards the whole splice path, including the
	// tech-change full re-synthesis below.
	if err := knobs.Faults.Check(ctx, fault.PointECO); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// A technology change invalidates every retained delay and sizing
	// decision: the dirty set is the whole design.
	if d.SetTech != nil {
		newSinks, _ := eco.Apply(st.Sinks, d)
		out, err := SynthesizeContext(ctx, st.Root, newSinks, d.SetTech, knobs)
		if err != nil {
			return nil, err
		}
		scopes := 1
		if len(out.Regions) > 0 {
			scopes = len(out.Regions)
		}
		out.ECO = &ECOStats{
			DirtyScopes: scopes, TotalScopes: scopes,
			Partitioned: len(out.Regions) > 0, FullResynthesis: true,
		}
		return out, nil
	}

	start := time.Now()
	emit := func(ph Phase, done bool, elapsed time.Duration) {
		if knobs.Progress != nil {
			knobs.Progress(Progress{Phase: ph, Done: done, Elapsed: elapsed})
		}
	}
	partitioned := len(st.Regions) > 0

	// Nothing moved: reuse the prior tree outright. Only the sign-off set
	// can differ, and corners never dirty the tree.
	if !d.Geometric() {
		out := &Outcome{
			Tree: prev.Tree, Metrics: prev.Metrics, DP: prev.DP, Refine: prev.Refine,
			Dual: prev.Dual, Corners: prev.Corners, Regions: prev.Regions,
		}
		total := 1
		if partitioned {
			total = len(st.Regions)
		}
		out.ECO = &ECOStats{TotalScopes: total, Partitioned: partitioned, ReusedSinks: len(st.Sinks)}
		if len(d.SetCorners) > 0 {
			if err := signoffCorners(ctx, out, st.Tech, knobs, emit); err != nil {
				return nil, err
			}
		}
		if knobs.RetainECO {
			retained := *st
			retained.Opt = retainedOptions(knobs)
			out.Retained = &retained
		}
		out.TotalTime = time.Since(start)
		return out, nil
	}

	newSinks, oldToNew := eco.Apply(st.Sinks, d)
	var out *Outcome
	var err error
	if partitioned {
		out, err = ecoPartitioned(ctx, st, d, newSinks, oldToNew, knobs, emit)
	} else {
		out, err = ecoMonolithic(ctx, prev.Tree, st, d, newSinks, oldToNew, knobs, emit)
	}
	if err != nil {
		return nil, err
	}
	out.TotalTime = time.Since(start)
	return out, nil
}

// ecoPartitioned re-synthesizes the dirty regions of a partitioned prior
// and reuses every clean region's retained tree and summary, then re-runs
// the (cheap) stitch + hierarchical composition tail.
func ecoPartitioned(ctx context.Context, st *ECOState, d eco.Delta, newSinks []geom.Point, oldToNew []int, knobs Options, emit func(Phase, bool, time.Duration)) (*Outcome, error) {
	emit(PhaseECO, false, 0)
	te := time.Now()
	plan, err := eco.PlanRegions(st.Regions, st.Sinks, oldToNew, newSinks, d, knobs.Partition)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nDirty := plan.DirtyCount()
	var dirtyIdx []int
	for i, dd := range plan.Dirty {
		if dd {
			dirtyIdx = append(dirtyIdx, i)
		}
	}

	out := &Outcome{Regions: make([]RegionStat, len(plan.Regions))}
	trees := make([]*ctree.Tree, len(plan.Regions))
	sums := make([]*eval.RegionEval, len(plan.Regions))

	// Same budget split as the full pipeline: regions fan out over the
	// worker budget (outer capped at physical cores), each dirty region's
	// inner phases run on an equal slice. Deterministic in every count.
	workers := par.N(knobs.Workers)
	outer := workers
	if cores := par.N(0); outer > cores {
		outer = cores
	}
	inner := 1
	if nDirty > 0 {
		if inner = workers / nDirty; inner < 1 {
			inner = 1
		}
	}
	type dirtyRun struct {
		st   *stages
		sum  *eval.RegionEval
		took time.Duration
		err  error
	}
	runs := make([]dirtyRun, len(dirtyIdx))
	var done atomic.Int64
	par.ForEach(outer, len(dirtyIdx), func(k int) {
		i := dirtyIdx[k]
		r := plan.Regions[i]
		local := make([]geom.Point, len(r.Sinks))
		for j, si := range r.Sinks {
			local[j] = newSinks[si]
		}
		t0 := time.Now()
		stg, err := runStages(ctx, r.Anchor, local, st.Tech, knobs, inner, nil)
		if err != nil {
			runs[k].err = fmt.Errorf("region %d: %w", r.ID, err)
			return
		}
		sum, err := eval.New(st.Tech, eval.Elmore).SummarizeRegion(stg.tree)
		if err != nil {
			runs[k].err = fmt.Errorf("region %d: %w", r.ID, err)
			return
		}
		sum.Sinks = r.Sinks
		runs[k] = dirtyRun{st: stg, sum: sum, took: time.Since(t0)}
		if knobs.Progress != nil {
			knobs.Progress(Progress{Phase: PhaseECO, Point: int(done.Add(1)), Total: nDirty})
		}
	})
	var dpTotal insert.Result
	for k, i := range dirtyIdx {
		if runs[k].err != nil {
			return nil, fmt.Errorf("core: eco: %w", runs[k].err)
		}
		sum := runs[k].sum
		trees[i], sums[i] = runs[k].st.tree, sum
		out.Regions[i] = RegionStat{
			ID: i, Sinks: len(plan.Regions[i].Sinks),
			Buffers: sum.Metrics.Buffers, NTSVs: sum.Metrics.NTSVs, WL: sum.Metrics.WL,
			Latency: sum.Metrics.Latency, Skew: sum.Metrics.Skew,
			Time: runs[k].took,
		}
		out.RouteTime += runs[k].st.routeTime
		out.InsertTime += runs[k].st.insertTime
		out.RefineTime += runs[k].st.refineTime
		dpTotal.Nodes += runs[k].st.dp.Nodes
		dpTotal.Solutions += runs[k].st.dp.Solutions
		dpTotal.Merged += runs[k].st.dp.Merged
	}
	reused := 0
	for i := range plan.Regions {
		if plan.Dirty[i] {
			continue
		}
		p := plan.Prev[i]
		trees[i] = st.Trees[p]
		sum := *st.Sums[p]
		sum.Sinks = plan.Regions[i].Sinks // remapped post-delta indices
		sums[i] = &sum
		reused += len(plan.Regions[i].Sinks)
		out.Regions[i] = RegionStat{
			ID: i, Sinks: len(plan.Regions[i].Sinks),
			Buffers: sum.Metrics.Buffers, NTSVs: sum.Metrics.NTSVs, WL: sum.Metrics.WL,
			Latency: sum.Metrics.Latency, Skew: sum.Metrics.Skew,
		}
	}
	out.DP = &dpTotal
	out.ECOTime = time.Since(te)
	emit(PhaseECO, true, out.ECOTime)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if err := stitchAndCompose(ctx, st.Root, plan.Regions, trees, sums, st.Tech, knobs, out, emit); err != nil {
		return nil, err
	}
	out.ECO = &ECOStats{
		DirtyScopes: nDirty, TotalScopes: len(plan.Regions),
		Partitioned: true, ReusedSinks: reused,
	}
	if knobs.RetainECO {
		out.Retained = &ECOState{
			Root: st.Root, Sinks: newSinks, Tech: st.Tech, Opt: retainedOptions(knobs),
			Regions: plan.Regions, Trees: trees, Sums: sums,
		}
	}
	return out, nil
}

// ecoMonolithic re-synthesizes the dirty leaf clusters of a monolithic
// prior: the retained tree minus the dirty leaf nets is cloned, each dirty
// cluster's sinks run through the same runStages pipeline as a miniature
// scope rooted at the cluster centroid, the fresh subtrees are grafted back
// at the centroids (re-legalizing the drive caps there), and the spliced
// tree is re-evaluated with one flat what-if pass — no structural
// revalidation, no staged network rebuild.
func ecoMonolithic(ctx context.Context, prevTree *ctree.Tree, st *ECOState, d eco.Delta, newSinks []geom.Point, oldToNew []int, knobs Options, emit func(Phase, bool, time.Duration)) (*Outcome, error) {
	emit(PhaseECO, false, 0)
	te := time.Now()
	clusterOf, centroids, centroidNode, err := leafClusters(prevTree, len(st.Sinks))
	if err != nil {
		return nil, fmt.Errorf("core: eco: %w", err)
	}
	plan, err := eco.PlanClusters(clusterOf, centroids, oldToNew, newSinks, d)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Splice out the dirty leaf nets: everything below a dirty centroid
	// goes; the centroid itself (the graft point) stays, keeping its
	// incoming trunk edge, wiring and any refinement buffer.
	dropBelow := make([]bool, prevTree.Len())
	for _, c := range plan.Clusters {
		for _, child := range prevTree.Nodes[centroidNode[c]].Children {
			markSubtree(prevTree, child, dropBelow)
		}
	}
	tree, idMap := prevTree.CloneWithout(func(id int) bool { return dropBelow[id] })
	// Surviving sinks take their post-delta indices (removed sinks lived in
	// dirty clusters, so every survivor remaps).
	for i := range tree.Nodes {
		if tree.Nodes[i].Kind == ctree.KindSink {
			tree.Nodes[i].SinkIdx = oldToNew[tree.Nodes[i].SinkIdx]
		}
	}

	// Re-run the dirty clusters as miniature synthesis scopes.
	workers := par.N(knobs.Workers)
	outer := workers
	if cores := par.N(0); outer > cores {
		outer = cores
	}
	inner := 1
	if len(plan.Clusters) > 0 {
		if inner = workers / len(plan.Clusters); inner < 1 {
			inner = 1
		}
	}
	mini := knobs
	mini.Partition = partition.Options{}
	mini.Corners = nil
	mini.Progress = nil
	minis := make([]*stages, len(plan.Clusters))
	errs := make([]error, len(plan.Clusters))
	var done atomic.Int64
	par.ForEach(outer, len(plan.Clusters), func(k int) {
		members := plan.Members[k]
		if len(members) == 0 {
			return // cluster lost every sink: the centroid stays childless
		}
		local := make([]geom.Point, len(members))
		for j, si := range members {
			local[j] = newSinks[si]
		}
		root := prevTree.Nodes[centroidNode[plan.Clusters[k]]].Pos
		stg, err := runStages(ctx, root, local, st.Tech, mini, inner, nil)
		if err != nil {
			errs[k] = fmt.Errorf("cluster %d: %w", plan.Clusters[k], err)
			return
		}
		minis[k] = stg
		if knobs.Progress != nil {
			knobs.Progress(Progress{Phase: PhaseECO, Point: int(done.Add(1)), Total: len(plan.Clusters)})
		}
	})
	var dpTotal insert.Result
	var out Outcome
	for k := range plan.Clusters {
		if errs[k] != nil {
			return nil, fmt.Errorf("core: eco: %w", errs[k])
		}
		if minis[k] == nil {
			continue
		}
		graftLeafTree(tree, idMap[centroidNode[plan.Clusters[k]]], minis[k].tree, plan.Members[k])
		out.RouteTime += minis[k].routeTime
		out.InsertTime += minis[k].insertTime
		out.RefineTime += minis[k].refineTime
		dpTotal.Nodes += minis[k].dp.Nodes
		dpTotal.Solutions += minis[k].dp.Solutions
		dpTotal.Merged += minis[k].dp.Merged
	}
	// Re-legalize the graft points: a leaf net that grew past the cap
	// budget gets a shielding buffer at its centroid, exactly the limit the
	// clustering honored at full synthesis.
	limit := 0.6 * st.Tech.Buf.MaxCap
	for _, c := range plan.Clusters {
		id := idMap[centroidNode[c]]
		if !tree.Nodes[id].BufferAtNode && eval.DownstreamCap(tree, id, st.Tech) > limit {
			tree.Nodes[id].BufferAtNode = true
		}
	}
	out.DP = &dpTotal
	out.Tree = tree
	out.ECOTime = time.Since(te)
	emit(PhaseECO, true, out.ECOTime)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	emit(PhaseEval, false, 0)
	t3 := time.Now()
	m, err := eval.New(st.Tech, eval.Elmore).EvaluateWhatIf(tree, len(newSinks))
	if err != nil {
		return nil, fmt.Errorf("core: evaluation: %w", err)
	}
	out.Metrics = m
	emit(PhaseEval, true, time.Since(t3))

	if len(knobs.Corners) > 0 {
		if err := signoffCorners(ctx, &out, st.Tech, knobs, emit); err != nil {
			return nil, err
		}
	}
	dirtySinks := 0
	for _, ms := range plan.Members {
		dirtySinks += len(ms)
	}
	out.ECO = &ECOStats{
		DirtyScopes: len(plan.Clusters), TotalScopes: plan.Total,
		ReusedSinks: len(newSinks) - dirtySinks,
	}
	if knobs.RetainECO {
		out.Retained = &ECOState{
			Root: st.Root, Sinks: newSinks, Tech: st.Tech, Opt: retainedOptions(knobs),
		}
	}
	return &out, nil
}

// leafClusters derives the monolithic tree's leaf-cluster structure: per
// sink its cluster index, per cluster its centroid position and tree node.
// Cluster indices must be the contiguous 0..K-1 range DualLevel flattens to;
// grafted subtrees never introduce new centroids (their internal centroids
// are demoted to Steiner nodes), so the derivation survives chained ECOs.
func leafClusters(t *ctree.Tree, nSinks int) (clusterOf []int, centroids []geom.Point, centroidNode []int, err error) {
	maxIdx := -1
	for i := range t.Nodes {
		if t.Nodes[i].Kind == ctree.KindCentroid && t.Nodes[i].ClusterIdx > maxIdx {
			maxIdx = t.Nodes[i].ClusterIdx
		}
	}
	if maxIdx < 0 {
		return nil, nil, nil, fmt.Errorf("tree has no leaf clusters")
	}
	centroids = make([]geom.Point, maxIdx+1)
	centroidNode = make([]int, maxIdx+1)
	for i := range centroidNode {
		centroidNode[i] = -1
	}
	clusterOf = make([]int, nSinks)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	var walk func(id, cluster int) error
	walk = func(id, cluster int) error {
		n := &t.Nodes[id]
		switch n.Kind {
		case ctree.KindCentroid:
			c := n.ClusterIdx
			if c < 0 || c > maxIdx || centroidNode[c] >= 0 {
				return fmt.Errorf("malformed cluster index %d at node %d", c, id)
			}
			centroids[c], centroidNode[c] = n.Pos, id
			cluster = c
		case ctree.KindSink:
			if cluster < 0 {
				return fmt.Errorf("sink %d outside any leaf cluster", n.SinkIdx)
			}
			if n.SinkIdx < 0 || n.SinkIdx >= nSinks {
				return fmt.Errorf("sink index %d outside [0,%d)", n.SinkIdx, nSinks)
			}
			clusterOf[n.SinkIdx] = cluster
		}
		for _, c := range n.Children {
			if err := walk(c, cluster); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root(), -1); err != nil {
		return nil, nil, nil, err
	}
	for c, id := range centroidNode {
		if id < 0 {
			return nil, nil, nil, fmt.Errorf("cluster %d has no centroid node", c)
		}
	}
	for s, c := range clusterOf {
		if c < 0 {
			return nil, nil, nil, fmt.Errorf("sink %d not present in the tree", s)
		}
	}
	return clusterOf, centroids, centroidNode, nil
}

func markSubtree(t *ctree.Tree, id int, mark []bool) {
	mark[id] = true
	for _, c := range t.Nodes[id].Children {
		markSubtree(t, c, mark)
	}
}

// graftLeafTree splices a miniature scope's tree under the retained graft
// point `at` (the dirty cluster's centroid): the mini root collapses into
// the centroid (a root carrying a node buffer keeps it on a zero-length
// child so the RC network is preserved element for element), the mini
// scope's internal centroids are demoted to Steiner nodes so cluster
// indices stay unique, and sink indices map through the post-delta member
// list.
func graftLeafTree(dst *ctree.Tree, at int, mini *ctree.Tree, members []int) {
	rootID := mini.Root()
	idMap := make([]int, mini.Len())
	idMap[rootID] = at
	if mini.Nodes[rootID].BufferAtNode {
		b := dst.Add(at, ctree.KindSteiner, mini.Nodes[rootID].Pos)
		dst.Nodes[b].BufferAtNode = true
		idMap[rootID] = b
	}
	mini.PreOrder(func(i int) {
		if i == rootID {
			return
		}
		n := &mini.Nodes[i]
		parent := idMap[n.Parent]
		var id int
		if n.Kind == ctree.KindSink {
			id = dst.AddSink(parent, n.Pos, members[n.SinkIdx])
		} else {
			id = dst.Add(parent, ctree.KindSteiner, n.Pos)
		}
		m := &dst.Nodes[id]
		m.Wiring = n.Wiring
		m.SnakeExtra = n.SnakeExtra
		m.BufferAtNode = n.BufferAtNode
		idMap[i] = id
	})
}
