package core

// Incremental (ECO) re-synthesis: given a prior Outcome that retained its
// synthesis state (Options.RetainECO) and a Delta of sink edits, re-run only
// the dirty scopes and splice them into the retained tree. Under
// partitioning the dirty regions run through the region pipeline itself
// (synthesizeRegions), which splices the clean regions' retained trees in
// unchanged and re-stitches with hierarchical composition. Monolithically
// the dirty low-level clusters re-run runStages on the same fan-out
// (fanOut), graft back at their centroids through the same graft routine,
// and the tree is re-evaluated in one flat what-if pass. Either way, every
// re-run scope reports one PhaseECO progress point. DESIGN.md §4 states
// the dirty-set semantics and the splice contract; the correctness
// contract is:
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
	"time"

	"dscts/internal/ctree"
	"dscts/internal/eco"
	"dscts/internal/eval"
	"dscts/internal/fault"
	"dscts/internal/geom"
	"dscts/internal/insert"
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
// returned outcome's DP statistics and its route, insert and refine rows
// cover the re-synthesized scopes only; Dual is not carried.
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
			if err := signoffCorners(ctx, out, st.Tech, knobs); err != nil {
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
		out, err = ecoPartitioned(ctx, st, d, newSinks, oldToNew, knobs)
	} else {
		out, err = ecoMonolithic(ctx, prev.Tree, st, d, newSinks, oldToNew, knobs)
	}
	if err != nil {
		return nil, err
	}
	out.TotalTime = time.Since(start)
	return out, nil
}

// ecoPartitioned re-synthesizes the dirty regions of a partitioned prior
// through the region pipeline itself, which splices every clean region's
// retained tree and summary in unchanged and re-runs the (cheap) stitch and
// hierarchical composition tail.
func ecoPartitioned(ctx context.Context, st *ECOState, d eco.Delta, newSinks []geom.Point, oldToNew []int, knobs Options) (*Outcome, error) {
	knobs.emit(PhaseECO, false, 0)
	te := time.Now()
	plan, err := eco.PlanRegions(st.Regions, st.Sinks, oldToNew, newSinks, d, knobs.Partition)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Plan regions carry IDs 0..len-1 in plan order.
	reuse := make([]*RegionOut, len(plan.Regions))
	reused := 0
	for i, r := range plan.Regions {
		if !plan.Dirty[i] {
			reuse[i] = &RegionOut{Tree: st.Trees[plan.Prev[i]], Sum: st.Sums[plan.Prev[i]]}
			reused += len(r.Sinks)
		}
	}
	out, err := synthesizeRegions(ctx, st.Root, newSinks, st.Tech, knobs, plan.Regions, reuse, PhaseECO, te)
	if err != nil {
		return nil, err
	}
	out.ECO = &ECOStats{
		DirtyScopes: plan.DirtyCount(), TotalScopes: len(plan.Regions),
		Partitioned: true, ReusedSinks: reused,
	}
	return out, nil
}

// ecoMonolithic re-synthesizes the dirty leaf clusters of a monolithic
// prior: the retained tree minus the dirty leaf nets is cloned, each dirty
// cluster's sinks run through runStages as a miniature scope rooted at the
// cluster centroid, the fresh subtrees are grafted back at the centroids
// with their own centroids demoted (re-legalizing the drive caps there),
// and the spliced tree is re-evaluated with one flat what-if pass — no
// structural revalidation, no staged network rebuild.
func ecoMonolithic(ctx context.Context, prevTree *ctree.Tree, st *ECOState, d eco.Delta, newSinks []geom.Point, oldToNew []int, knobs Options) (*Outcome, error) {
	knobs.emit(PhaseECO, false, 0)
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
	mini := knobs
	mini.Partition = partition.Options{}
	mini.Corners = nil
	mini.Progress = nil
	minis := make([]*stages, len(plan.Clusters))
	err = fanOut(ctx, &knobs, PhaseECO, len(plan.Clusters), func(ctx context.Context, k, inner int) error {
		members := plan.Members[k]
		if len(members) == 0 {
			return nil // cluster lost every sink: the centroid stays childless
		}
		local := make([]geom.Point, len(members))
		for j, si := range members {
			local[j] = newSinks[si]
		}
		root := prevTree.Nodes[centroidNode[plan.Clusters[k]]].Pos
		stg, err := runStages(ctx, root, local, st.Tech, mini, inner)
		if err != nil {
			return fmt.Errorf("cluster %d: %w", plan.Clusters[k], err)
		}
		minis[k] = stg
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: eco: %w", err)
	}
	out := Outcome{DP: &insert.Result{}}
	var ran int
	var route, ins, ref time.Duration
	for k, c := range plan.Clusters {
		if minis[k] == nil {
			continue
		}
		if _, err := graft(tree, idMap[centroidNode[c]], minis[k].tree, plan.Members[k], -1); err != nil {
			return nil, fmt.Errorf("core: eco: cluster %d: %w", c, err)
		}
		ran++
		route += minis[k].routeTime
		ins += minis[k].insertTime
		ref += minis[k].refineTime
		out.DP.Nodes += minis[k].dp.Nodes
		out.DP.Solutions += minis[k].dp.Solutions
		out.DP.Merged += minis[k].dp.Merged
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
	out.Tree = tree
	out.recordScopes(ran, route, ins, ref, !mini.SkipRefine)
	knobs.end(&out, PhaseECO, len(plan.Clusters), time.Since(te))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	knobs.emit(PhaseEval, false, 0)
	t3 := time.Now()
	m, err := eval.New(st.Tech, eval.Elmore).EvaluateWhatIf(tree, len(newSinks))
	if err != nil {
		return nil, fmt.Errorf("core: evaluation: %w", err)
	}
	out.Metrics = m
	knobs.end(&out, PhaseEval, 0, time.Since(t3))

	if len(knobs.Corners) > 0 {
		if err := signoffCorners(ctx, &out, st.Tech, knobs); err != nil {
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
