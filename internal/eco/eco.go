// Package eco models engineering change orders against a finished synthesis:
// a Delta of sink edits (add/move/remove) plus optional corner- or
// technology-set replacements, applied to a prior placement to produce the
// post-ECO placement and an index remapping. The planners here compute the
// dirty set the incremental engine (core.SynthesizeECO) re-synthesizes —
// affected regions under partitioning, affected low-level clusters
// monolithically — as pure functions of (prior state, delta), so the dirty
// set, like everything else in this codebase, is deterministic in the worker
// count and in iteration order.
package eco

import (
	"fmt"
	"math"
	"sort"

	"dscts/internal/corner"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// Move relocates one existing sink.
type Move struct {
	// Sink is the sink's index in the PRIOR placement.
	Sink int
	// To is the new position (µm).
	To geom.Point
}

// Delta is one engineering change order against a prior synthesis. The zero
// value is the empty delta: applying it is defined to reproduce the prior
// outcome bit-identically.
type Delta struct {
	// Add appends new sinks; they take the indices following the surviving
	// prior sinks in the post-ECO placement.
	Add []geom.Point
	// Move relocates prior sinks in place (their relative order is kept).
	Move []Move
	// Remove drops prior sinks by index; the survivors' indices compact
	// while preserving order.
	Remove []int
	// SetCorners, when non-empty, replaces the sign-off corner set of the
	// prior run. Corner changes never dirty the tree: only the sign-off
	// re-evaluation re-runs.
	SetCorners []corner.Corner
	// SetTech, when non-nil, replaces the technology. A tech change
	// invalidates every delay and sizing decision in the retained tree, so
	// the dirty set is the whole design: the engine falls back to a full
	// re-synthesis of the post-ECO placement.
	SetTech *tech.Tech
}

// Empty reports whether the delta changes nothing at all.
func (d Delta) Empty() bool {
	return len(d.Add) == 0 && len(d.Move) == 0 && len(d.Remove) == 0 &&
		len(d.SetCorners) == 0 && d.SetTech == nil
}

// Geometric reports whether the delta edits the placement itself (as
// opposed to only the corner or technology sets).
func (d Delta) Geometric() bool {
	return len(d.Add) > 0 || len(d.Move) > 0 || len(d.Remove) > 0
}

// Validate rejects deltas that do not describe a well-formed edit of a
// placement with nSinks sinks: out-of-range or duplicate removals, moves of
// unknown or removed sinks, duplicate moves, non-finite coordinates, and
// edits that would leave no sinks at all.
func (d Delta) Validate(nSinks int) error {
	removed := make(map[int]bool, len(d.Remove))
	for _, r := range d.Remove {
		if r < 0 || r >= nSinks {
			return fmt.Errorf("eco: remove index %d out of range [0,%d)", r, nSinks)
		}
		if removed[r] {
			return fmt.Errorf("eco: sink %d removed twice", r)
		}
		removed[r] = true
	}
	moved := make(map[int]bool, len(d.Move))
	for _, m := range d.Move {
		if m.Sink < 0 || m.Sink >= nSinks {
			return fmt.Errorf("eco: move index %d out of range [0,%d)", m.Sink, nSinks)
		}
		if removed[m.Sink] {
			return fmt.Errorf("eco: sink %d both moved and removed", m.Sink)
		}
		if moved[m.Sink] {
			return fmt.Errorf("eco: sink %d moved twice", m.Sink)
		}
		moved[m.Sink] = true
		if !m.To.Finite() {
			return fmt.Errorf("eco: move of sink %d to non-finite position", m.Sink)
		}
	}
	for i, p := range d.Add {
		if !p.Finite() {
			return fmt.Errorf("eco: added sink %d has non-finite position", i)
		}
	}
	if nSinks-len(d.Remove)+len(d.Add) <= 0 {
		return fmt.Errorf("eco: delta leaves no sinks")
	}
	if len(d.SetCorners) > 0 {
		if err := corner.ValidateSet(d.SetCorners); err != nil {
			return fmt.Errorf("eco: %w", err)
		}
	}
	if d.SetTech != nil {
		if err := d.SetTech.Validate(); err != nil {
			return fmt.Errorf("eco: %w", err)
		}
	}
	return nil
}

// Apply builds the post-ECO placement: surviving prior sinks first (moves
// applied in place, removals compacted, relative order preserved), then the
// added sinks in Delta order. It returns the new sink list and oldToNew,
// which maps every prior sink index to its post-ECO index (-1 for removed
// sinks). The delta must already have passed Validate.
func Apply(sinks []geom.Point, d Delta) (newSinks []geom.Point, oldToNew []int) {
	removed := make(map[int]bool, len(d.Remove))
	for _, r := range d.Remove {
		removed[r] = true
	}
	movedTo := make(map[int]geom.Point, len(d.Move))
	for _, m := range d.Move {
		movedTo[m.Sink] = m.To
	}
	newSinks = make([]geom.Point, 0, len(sinks)-len(d.Remove)+len(d.Add))
	oldToNew = make([]int, len(sinks))
	for i, p := range sinks {
		if removed[i] {
			oldToNew[i] = -1
			continue
		}
		if to, ok := movedTo[i]; ok {
			p = to
		}
		oldToNew[i] = len(newSinks)
		newSinks = append(newSinks, p)
	}
	newSinks = append(newSinks, d.Add...)
	return newSinks, oldToNew
}

// boxDist is the L1 distance from p to the box (0 inside).
func boxDist(b geom.BBox, p geom.Point) float64 {
	dx := math.Max(0, math.Max(b.MinX-p.X, p.X-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-p.Y, p.Y-b.MaxY))
	return dx + dy
}

// RegionPlan is the partitioned dirty set: the post-ECO region list plus,
// per region, whether it must be re-synthesized and — for clean regions —
// which prior region's tree and summary it reuses.
type RegionPlan struct {
	// Regions are the post-ECO regions: Sinks hold POST-ECO sink indices,
	// ascending; IDs are 0..len-1 in plan order (surviving prior regions in
	// prior-ID order, capacity re-splits expanded in place).
	Regions []partition.Region
	// Dirty marks regions that must re-run synthesis.
	Dirty []bool
	// Prev maps each region to the prior region index whose retained tree
	// and summary it reuses; -1 for dirty regions.
	Prev []int
}

// DirtyCount returns the number of dirty regions.
func (p *RegionPlan) DirtyCount() int {
	n := 0
	for _, d := range p.Dirty {
		if d {
			n++
		}
	}
	return n
}

// PlanRegions computes the partitioned dirty set. A prior region is dirty
// when it lost a sink, a member moved, or it received an added sink; added
// sinks go to the region nearest to them (L1 distance to the region's sink
// bounding box, ties to the lower prior region ID). A dirty region that
// outgrew opt.MaxSinks is re-cut with the same kd median strategy; a region
// emptied by removals is dropped. Clean regions keep their prior anchor and
// box bit-identically — their retained trees are rooted there.
func PlanRegions(prior []partition.Region, sinks []geom.Point, oldToNew []int, newSinks []geom.Point, d Delta, opt partition.Options) (*RegionPlan, error) {
	moved := make(map[int]bool, len(d.Move))
	for _, m := range d.Move {
		moved[m.Sink] = true
	}
	type work struct {
		members []int // post-ECO indices, ascending
		dirty   bool
		prev    int
		anchor  geom.Point
		box     geom.BBox
	}
	works := make([]work, len(prior))
	for i, r := range prior {
		w := &works[i]
		w.prev = i
		w.anchor, w.box = r.Anchor, r.Box
		w.members = make([]int, 0, len(r.Sinks))
		for _, old := range r.Sinks {
			ni := oldToNew[old]
			if ni < 0 {
				w.dirty = true // lost a member
				continue
			}
			if moved[old] {
				w.dirty = true
			}
			w.members = append(w.members, ni)
		}
	}
	// Adds: nearest prior region by box distance, ties to the lower ID.
	addBase := len(newSinks) - len(d.Add)
	for j := range d.Add {
		ni := addBase + j
		p := newSinks[ni]
		best, bestDist := -1, math.Inf(1)
		for i := range prior {
			if dist := boxDist(prior[i].Box, p); dist < bestDist {
				best, bestDist = i, dist
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("eco: no prior region for added sink %d", j)
		}
		works[best].members = append(works[best].members, ni)
		works[best].dirty = true
	}
	plan := &RegionPlan{}
	emit := func(members []int, dirty bool, prev int, anchor geom.Point, box geom.BBox) {
		id := len(plan.Regions)
		r := partition.Region{ID: id, Sinks: members}
		if dirty {
			// Recompute geometry: the region is re-synthesized anyway.
			var cx, cy float64
			for _, si := range members {
				r.Box.Grow(newSinks[si])
				cx += newSinks[si].X
				cy += newSinks[si].Y
			}
			n := float64(len(members))
			r.Anchor = geom.Pt(cx/n, cy/n)
			prev = -1
		} else {
			r.Anchor, r.Box = anchor, box
		}
		plan.Regions = append(plan.Regions, r)
		plan.Dirty = append(plan.Dirty, dirty)
		plan.Prev = append(plan.Prev, prev)
	}
	for i := range works {
		w := &works[i]
		if len(w.members) == 0 {
			continue // region emptied by removals
		}
		sort.Ints(w.members)
		if w.dirty && opt.MaxSinks > 0 && len(w.members) > opt.MaxSinks {
			groups, err := partition.SplitMembers(newSinks, w.members, opt)
			if err != nil {
				return nil, fmt.Errorf("eco: re-splitting region %d: %w", i, err)
			}
			for _, g := range groups {
				emit(g, true, -1, geom.Point{}, geom.BBox{})
			}
			continue
		}
		emit(w.members, w.dirty, w.prev, w.anchor, w.box)
	}
	if len(plan.Regions) == 0 {
		return nil, fmt.Errorf("eco: delta empties every region")
	}
	if err := partition.Validate(plan.Regions, len(newSinks)); err != nil {
		return nil, fmt.Errorf("eco: %w", err)
	}
	return plan, nil
}

// ClusterPlan is the monolithic dirty set: the affected low-level clusters
// and their post-ECO membership.
type ClusterPlan struct {
	// Clusters lists the dirty cluster indices, ascending.
	Clusters []int
	// Members[i] holds cluster Clusters[i]'s post-ECO sink indices,
	// ascending; an empty slice means the cluster lost all its sinks.
	Members [][]int
	// Total is the number of low-level clusters in the prior tree.
	Total int
}

// PlanClusters computes the monolithic dirty set from the prior sink→cluster
// assignment and the cluster centroid positions. A cluster is dirty when it
// lost a member, a member moved, or it receives an added sink; added sinks
// join the cluster with the nearest centroid (Manhattan distance, ties to
// the lower cluster index).
func PlanClusters(clusterOf []int, centroids []geom.Point, oldToNew []int, newSinks []geom.Point, d Delta) (*ClusterPlan, error) {
	if len(clusterOf) != len(oldToNew) {
		return nil, fmt.Errorf("eco: cluster map covers %d sinks, placement has %d", len(clusterOf), len(oldToNew))
	}
	dirty := make(map[int]bool)
	for _, r := range d.Remove {
		dirty[clusterOf[r]] = true
	}
	for _, m := range d.Move {
		dirty[clusterOf[m.Sink]] = true
	}
	addCluster := make([]int, len(d.Add))
	addBase := len(newSinks) - len(d.Add)
	for j := range d.Add {
		p := newSinks[addBase+j]
		best, bestDist := -1, math.Inf(1)
		for c, ctr := range centroids {
			if dist := p.Dist(ctr); dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("eco: no prior cluster for added sink %d", j)
		}
		addCluster[j] = best
		dirty[best] = true
	}
	plan := &ClusterPlan{Total: len(centroids)}
	for c := range centroids {
		if dirty[c] {
			plan.Clusters = append(plan.Clusters, c)
		}
	}
	members := make(map[int][]int, len(plan.Clusters))
	for old, c := range clusterOf {
		if !dirty[c] {
			continue
		}
		if ni := oldToNew[old]; ni >= 0 {
			members[c] = append(members[c], ni)
		}
	}
	for j, c := range addCluster {
		members[c] = append(members[c], addBase+j)
	}
	plan.Members = make([][]int, len(plan.Clusters))
	for i, c := range plan.Clusters {
		m := members[c]
		sort.Ints(m)
		if m == nil {
			m = []int{}
		}
		plan.Members[i] = m
	}
	return plan, nil
}
