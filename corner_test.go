package dscts

// Determinism regression tests for the multi-corner sign-off path: the
// worker count and the corner order must never change any per-corner
// metric. Each corner's evaluation is a pure function of (tree, tech,
// corner) and results merge in corner order, so Workers=1 and Workers=N —
// and any permutation of the corner list — are required to produce
// bit-identical per-corner Metrics, not merely close ones.

import (
	"context"
	"testing"

	"dscts/internal/core"
	"dscts/internal/dse"
	"dscts/internal/eval"
)

// TestCornerWorkersDeterminism synthesizes C4 and C5 with the full
// slow/typ/fast sign-off at one worker and at eight and requires
// bit-identical per-corner Metrics and summaries.
func TestCornerWorkersDeterminism(t *testing.T) {
	tc := ASAP7()
	for _, id := range []string{"C4", "C5"} {
		id := id
		t.Run(id, func(t *testing.T) {
			p, err := GenerateBenchmark(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) *CornerReport {
				out, err := Synthesize(p.Root, p.Sinks, tc, Options{Workers: workers, Corners: SignoffCorners()})
				if err != nil {
					t.Fatal(err)
				}
				return out.Corners
			}
			a, b := run(1), run(8)
			if len(a.Results) != 3 || len(b.Results) != 3 {
				t.Fatalf("corner counts %d vs %d", len(a.Results), len(b.Results))
			}
			for i := range a.Results {
				label := id + " corner " + a.Results[i].Corner.Name
				metricsIdentical(t, label, a.Results[i].Metrics, b.Results[i].Metrics)
			}
			if a.Summary != b.Summary {
				t.Fatalf("summaries differ: %+v vs %+v", a.Summary, b.Summary)
			}
		})
	}
}

// TestCornerOrderDeterminism permutes the corner list and requires every
// corner's metrics to match the canonical order's, with results merged in
// request order and an order-free summary.
func TestCornerOrderDeterminism(t *testing.T) {
	tc := ASAP7()
	p, err := GenerateBenchmark("C4", 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Synthesize(p.Root, p.Sinks, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	canonical := SignoffCorners() // slow, typ, fast
	ref, err := EvaluateCorners(out.Tree, tc, canonical, 1)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	for _, perm := range perms {
		cs := make([]Corner, len(perm))
		for i, j := range perm {
			cs[i] = canonical[j]
		}
		rep, err := EvaluateCorners(out.Tree, tc, cs, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range perm {
			if rep.Results[i].Corner.Name != canonical[j].Name {
				t.Fatalf("perm %v: result %d is %s want %s", perm, i, rep.Results[i].Corner.Name, canonical[j].Name)
			}
			metricsIdentical(t, "perm corner "+canonical[j].Name, ref.Results[j].Metrics, rep.Results[i].Metrics)
		}
		if rep.Summary != ref.Summary {
			t.Fatalf("perm %v: summary %+v vs %+v", perm, rep.Summary, ref.Summary)
		}
	}
}

// TestCornerSweepDeterminismDSE checks a concurrent multi-corner DSE sweep
// returns the same corner points in the same order as a single-threaded
// one, and that the cross-corner Pareto front is reproducible.
func TestCornerSweepDeterminismDSE(t *testing.T) {
	tc := ASAP7()
	p, err := GenerateBenchmark("C4", 1)
	if err != nil {
		t.Fatal(err)
	}
	ths := []int{50, 200, 800}
	run := func(workers int) []DSECornerPoint {
		pts, err := dse.SweepFanoutCorners(context.Background(), p.Root, p.Sinks, tc, ths, SignoffCorners(), core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Param != b[i].Param || len(a[i].Corners) != len(b[i].Corners) {
			t.Fatalf("point %d shape differs", i)
		}
		for c := range a[i].Corners {
			if a[i].Corners[c] != b[i].Corners[c] {
				t.Errorf("point %d corner %d differs: %+v vs %+v", i, c, a[i].Corners[c], b[i].Corners[c])
			}
		}
	}
	fa := ParetoCornersLatency(a)
	fb := ParetoCornersLatency(b)
	if len(fa) != len(fb) {
		t.Fatalf("front sizes differ: %d vs %d", len(fa), len(fb))
	}
	if len(fa) == 0 {
		t.Fatal("empty cross-corner front")
	}
}

// TestSynthesizeWithCornersMatchesPlain pins that attaching sign-off
// corners never perturbs the synthesis itself: the tree and the typical-
// corner metrics equal a corner-free run's, and the typ corner result
// equals the top-level metrics.
func TestSynthesizeWithCornersMatchesPlain(t *testing.T) {
	tc := ASAP7()
	p, err := GenerateBenchmark("C5", 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Synthesize(p.Root, p.Sinks, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cornered, err := Synthesize(p.Root, p.Sinks, tc, Options{Corners: SignoffCorners()})
	if err != nil {
		t.Fatal(err)
	}
	metricsIdentical(t, "top-level metrics", plain.Metrics, cornered.Metrics)
	typ := cornered.Corners.ByName("typ")
	if typ == nil {
		t.Fatal("typ corner missing")
	}
	metricsIdentical(t, "typ corner vs top-level", cornered.Metrics, typ.Metrics)
}

// TestDuplicateSinkIndexRejected: a tree in which two sink nodes carry one
// sink index passes ctree.Validate, but every delay map would silently
// drop one sink. The evaluator, the region summary and the corner
// sign-off (one corner and three) must all refuse it.
func TestDuplicateSinkIndexRejected(t *testing.T) {
	tc := ASAP7()
	p, err := GenerateBenchmark("C4", 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Synthesize(p.Root, p.Sinks, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree := out.Tree.Clone()
	sinks := tree.Sinks()
	tree.Nodes[sinks[10]].SinkIdx = tree.Nodes[sinks[11]].SinkIdx
	if err := tree.Validate(); err != nil {
		t.Fatalf("the tree is structurally sound, yet Validate says %v", err)
	}
	if _, err := eval.New(tc, eval.Elmore).Evaluate(tree); err == nil {
		t.Error("Evaluate accepted a repeated sink index")
	}
	if _, err := eval.New(tc, eval.Elmore).SummarizeRegion(tree); err == nil {
		t.Error("SummarizeRegion accepted a repeated sink index")
	}
	for _, cs := range [][]Corner{{SignoffCorners()[1]}, SignoffCorners()} {
		if _, err := EvaluateCorners(tree, tc, cs, 2); err == nil {
			t.Errorf("sign-off over %d corners accepted a repeated sink index", len(cs))
		}
	}
	// The untouched tree still evaluates.
	if _, err := eval.New(tc, eval.Elmore).Evaluate(out.Tree); err != nil {
		t.Fatal(err)
	}
}
