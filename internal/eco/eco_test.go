package eco

import (
	"reflect"
	"strings"
	"testing"

	"dscts/internal/geom"
	"dscts/internal/partition"
)

func TestApplySemantics(t *testing.T) {
	sinks := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	d := Delta{
		Remove: []int{1},
		Move:   []Move{{Sink: 2, To: geom.Pt(2.5, 1)}},
		Add:    []geom.Point{geom.Pt(9, 9)},
	}
	if err := d.Validate(len(sinks)); err != nil {
		t.Fatal(err)
	}
	got, oldToNew := Apply(sinks, d)
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(2.5, 1), geom.Pt(3, 0), geom.Pt(9, 9)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apply = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(oldToNew, []int{0, -1, 1, 2}) {
		t.Fatalf("oldToNew = %v", oldToNew)
	}
}

func TestDeltaValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		d    Delta
	}{
		{"remove out of range", Delta{Remove: []int{4}}},
		{"negative remove", Delta{Remove: []int{-1}}},
		{"double remove", Delta{Remove: []int{1, 1}}},
		{"move out of range", Delta{Move: []Move{{Sink: 9, To: geom.Pt(0, 0)}}}},
		{"move of removed", Delta{Remove: []int{1}, Move: []Move{{Sink: 1, To: geom.Pt(0, 0)}}}},
		{"double move", Delta{Move: []Move{{Sink: 1, To: geom.Pt(0, 0)}, {Sink: 1, To: geom.Pt(1, 1)}}}},
		{"empties placement", Delta{Remove: []int{0, 1, 2, 3}}},
	}
	for _, tc := range cases {
		if err := tc.d.Validate(4); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if (Delta{}).Validate(4) != nil {
		t.Error("empty delta must validate")
	}
	if !(Delta{}).Empty() || (Delta{Add: []geom.Point{{}}}).Empty() {
		t.Error("Empty misreports")
	}
}

// grid16 is a 4x4 unit grid of sinks, indices row-major.
func grid16() []geom.Point {
	sinks := make([]geom.Point, 0, 16)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			sinks = append(sinks, geom.Pt(float64(x)*10, float64(y)*10))
		}
	}
	return sinks
}

func priorRegions(t *testing.T, sinks []geom.Point, maxSinks int) []partition.Region {
	t.Helper()
	regions, err := partition.Split(sinks, partition.Options{MaxSinks: maxSinks})
	if err != nil {
		t.Fatal(err)
	}
	return regions
}

func TestPlanRegionsCleanReuse(t *testing.T) {
	sinks := grid16()
	prior := priorRegions(t, sinks, 4)
	// Move one sink within its region: exactly one region dirty, the rest
	// reuse their prior geometry bit-identically.
	d := Delta{Move: []Move{{Sink: 0, To: geom.Pt(1, 1)}}}
	newSinks, oldToNew := Apply(sinks, d)
	plan, err := PlanRegions(prior, sinks, oldToNew, newSinks, d, partition.Options{MaxSinks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != len(prior) {
		t.Fatalf("region count changed: %d -> %d", len(prior), len(plan.Regions))
	}
	if plan.DirtyCount() != 1 {
		t.Fatalf("dirty count %d, want 1", plan.DirtyCount())
	}
	for i := range plan.Regions {
		if plan.Dirty[i] {
			continue
		}
		p := prior[plan.Prev[i]]
		if plan.Regions[i].Anchor != p.Anchor || plan.Regions[i].Box != p.Box {
			t.Fatalf("clean region %d geometry drifted", i)
		}
		if !reflect.DeepEqual(plan.Regions[i].Sinks, p.Sinks) {
			// With no removals the remapping is the identity here.
			t.Fatalf("clean region %d membership drifted", i)
		}
	}
}

func TestPlanRegionsAddAssignmentAndResplit(t *testing.T) {
	sinks := grid16()
	prior := priorRegions(t, sinks, 4)
	// Pile 5 adds onto the region around (0,0): it must go dirty and split
	// into capacity-sized pieces.
	d := Delta{Add: []geom.Point{
		geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(1, 2), geom.Pt(2, 2), geom.Pt(3, 3),
	}}
	newSinks, oldToNew := Apply(sinks, d)
	plan, err := PlanRegions(prior, sinks, oldToNew, newSinks, d, partition.Options{MaxSinks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) <= len(prior) {
		t.Fatalf("overfull dirty region was not re-split: %d regions", len(plan.Regions))
	}
	for i, r := range plan.Regions {
		if len(r.Sinks) > 4 {
			t.Fatalf("region %d holds %d sinks past the capacity", i, len(r.Sinks))
		}
		if !plan.Dirty[i] && plan.Prev[i] < 0 {
			t.Fatalf("clean region %d lost its prior link", i)
		}
	}
	// Determinism: planning twice gives the same plan.
	again, err := PlanRegions(prior, sinks, oldToNew, newSinks, d, partition.Options{MaxSinks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Fatal("PlanRegions is not deterministic")
	}
}

func TestPlanRegionsRemovalEmptiesRegion(t *testing.T) {
	sinks := grid16()
	prior := priorRegions(t, sinks, 4)
	var d Delta
	d.Remove = append(d.Remove, prior[0].Sinks...)
	newSinks, oldToNew := Apply(sinks, d)
	plan, err := PlanRegions(prior, sinks, oldToNew, newSinks, d, partition.Options{MaxSinks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != len(prior)-1 {
		t.Fatalf("emptied region not dropped: %d regions", len(plan.Regions))
	}
}

func TestPlanClusters(t *testing.T) {
	// Two clusters: sinks 0,1 near (0,0); sinks 2,3 near (100,0).
	clusterOf := []int{0, 0, 1, 1}
	centroids := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	sinks := []geom.Point{geom.Pt(0, 1), geom.Pt(1, 0), geom.Pt(100, 1), geom.Pt(101, 0)}
	d := Delta{
		Remove: []int{0},
		Add:    []geom.Point{geom.Pt(99, 0)}, // nearest centroid 1
	}
	newSinks, oldToNew := Apply(sinks, d)
	plan, err := PlanClusters(clusterOf, centroids, oldToNew, newSinks, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Clusters, []int{0, 1}) {
		t.Fatalf("dirty clusters %v", plan.Clusters)
	}
	// Cluster 0 keeps surviving sink 1 (new index 0); cluster 1 gains the
	// add (new index 3).
	if !reflect.DeepEqual(plan.Members[0], []int{0}) {
		t.Fatalf("cluster 0 members %v", plan.Members[0])
	}
	if !reflect.DeepEqual(plan.Members[1], []int{1, 2, 3}) {
		t.Fatalf("cluster 1 members %v", plan.Members[1])
	}
	if plan.Total != 2 {
		t.Fatalf("total %d", plan.Total)
	}
}

func TestSplitMembersBounded(t *testing.T) {
	sinks := grid16()
	members := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	groups, err := partition.SplitMembers(sinks, members, partition.Options{MaxSinks: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, g := range groups {
		if len(g) > 3 {
			t.Fatalf("group %v past capacity", g)
		}
		for _, si := range g {
			if seen[si] {
				t.Fatalf("sink %d in two groups", si)
			}
			seen[si] = true
		}
	}
	if len(seen) != len(members) {
		t.Fatalf("%d of %d members grouped", len(seen), len(members))
	}
}

// TestLoadJSON: a delta file's corner names resolve at load, so an unknown
// or repeated name fails there rather than at Validate.
func TestLoadJSON(t *testing.T) {
	d, err := LoadJSON(strings.NewReader(`{"add":[{"x":1,"y":2}],"remove":[3],"corners":["SLOW","typ"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Add) != 1 || d.Add[0] != geom.Pt(1, 2) || !reflect.DeepEqual(d.Remove, []int{3}) {
		t.Fatalf("loaded %+v", d)
	}
	if len(d.SetCorners) != 2 || d.SetCorners[0].Name != "slow" || d.SetCorners[1].Name != "typ" {
		t.Fatalf("corners %+v", d.SetCorners)
	}
	for _, bad := range []string{
		`{"corners":["slow","SLOW"]}`,
		`{"corners":["wat"]}`,
		`{"rmove":[1]}`,
	} {
		if _, err := LoadJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadJSON(%s) accepted", bad)
		}
	}
}
