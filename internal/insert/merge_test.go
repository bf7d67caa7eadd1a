package insert

import (
	"context"
	"math"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/cluster"
	"dscts/internal/ctree"
	"dscts/internal/dme"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

// flowTree clusters and routes a Table II placement with the synthesis
// flow's settings, giving the tree the DP runs on.
func flowTree(t *testing.T, d bench.Design, seed int64, tc *tech.Tech) *ctree.Tree {
	t.Helper()
	p, err := bench.Generate(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	front := tc.Front()
	opt := cluster.DefaultDualOptions()
	opt.CapOf = func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) }
	opt.CapLimit = 0.6 * tc.Buf.MaxCap
	dual, err := cluster.DualLevel(p.Sinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dme.HierarchicalRoute(p.Root, p.Sinks, dual, tc, dme.HierOptions{MaxTrunkEdge: 40})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameSolutions reports the first difference between two solution lists,
// comparing every field and the floats bit for bit.
func sameSolutions(got, want []Solution) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	bits := math.Float64bits
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Up != w.Up || bits(g.Cap) != bits(w.Cap) || bits(g.MaxD) != bits(w.MaxD) ||
			bits(g.MinD) != bits(w.MinD) || g.Bufs != w.Bufs || g.TSVs != w.TSVs ||
			g.Pattern != w.Pattern || g.left != w.left || g.right != w.right {
			return i, false
		}
	}
	return 0, true
}

// checkMerge prunes the filtered and the full merge of a and b and
// requires identical sets. It returns both merges' pair counts.
func checkMerge(t *testing.T, a, b []Solution, maxPerSide int, label string) (filtered, full int) {
	t.Helper()
	sc := &genScratch{}
	fp := crossPareto(nil, a, b)
	fa := crossAll(nil, a, b)
	got := pruneInto(nil, fp, maxPerSide, false, sc)
	want := pruneInto(nil, fa, maxPerSide, false, sc)
	if i, ok := sameSolutions(got, want); !ok {
		if i < 0 {
			t.Fatalf("%s: filtered merge prunes to %d solutions, full cross product to %d", label, len(got), len(want))
		}
		t.Fatalf("%s: pruned solution %d differs: filtered %+v, full %+v", label, i, got[i], want[i])
	}
	return len(fp), len(fa)
}

// TestParetoMergeMatchesCross checks the filtered two-child merge at every
// two-child DP node of C1..C5 at placement seeds 1-3, under the default
// options, a fanout threshold of 8 and per-side caps of 2 and 4: pruned, it
// must equal the pruned full cross product, in order and field by field.
func TestParetoMergeMatchesCross(t *testing.T) {
	tc := tech.ASAP7()
	fanout8 := func(_, fanout int) Mode {
		if fanout >= 8 {
			return ModeFull
		}
		return ModeIntra
	}
	variants := []struct {
		name       string
		modeOf     func(treeID, fanout int) Mode
		maxPerSide int
	}{
		{"default", nil, DefaultMaxPerSide},
		{"fanout8", fanout8, DefaultMaxPerSide},
		{"maxPerSide2", nil, 2},
		{"maxPerSide4", nil, 4},
	}
	for _, d := range bench.Suite() {
		for seed := int64(1); seed <= 3; seed++ {
			tr := flowTree(t, d, seed, tc)
			for _, v := range variants {
				cfg := DefaultConfig(tc)
				cfg.ModeOf, cfg.MaxPerSide, cfg.Workers = v.modeOf, v.maxPerSide, 1
				nodes, _, err := buildDPTree(tr, cfg, tr.SinkCounts())
				if err != nil {
					t.Fatal(err)
				}
				var res Result
				scratches, err := generateAll(context.Background(), tr, nodes, cfg, &res)
				if err != nil {
					t.Fatal(err)
				}
				var filtered, full, merges int
				for i := range nodes {
					if nodes[i].nkids != 2 {
						continue
					}
					a, b := nodes[nodes[i].child[0]].sols, nodes[nodes[i].child[1]].sols
					fp, fa := checkMerge(t, a, b, cfg.MaxPerSide, d.ID+" "+v.name)
					filtered += fp
					full += fa
					merges++
				}
				for _, sc := range scratches {
					genPool.Put(sc)
				}
				if filtered != res.Merged {
					t.Errorf("%s seed %d %s: Result.Merged %d, filtered pairs %d", d.ID, seed, v.name, res.Merged, filtered)
				}
				if merges == 0 || filtered > full {
					t.Errorf("%s seed %d %s: %d merges, %d filtered of %d pairs", d.ID, seed, v.name, merges, filtered, full)
				}
				t.Logf("%s seed %d %s: %d merges, %d of %d pairs generated", d.ID, seed, v.name, merges, filtered, full)
			}
		}
	}
}

// fuzzCaps and fuzzDelays are the value palettes of FuzzParetoMerge. The
// caps include 1e16 and its neighbours, where adding a cap below one ulp
// (2) rounds back to the same sum, so cap sums tie often. The delays
// include steps below the prune's 1e-12 dominance epsilon.
var (
	fuzzCaps   = [...]float64{0, 0.1, 0.2, 0.3, 0.5, 1, 1.5, 2, 3, 7.25, 1e16, 1e16 + 2, 1e16 + 4, 1e16 + 8, 0.7, 4}
	fuzzDelays = [...]float64{0, 1e-13, 5e-13, 2e-12, 1, 1 + 1e-13, 1 + 3e-12, 2, 2.5, 3, 10, 10 + 1e-12, 40, 1e3, 1e16, 1e16 + 2}
)

// fuzzSols decodes 3-byte records into candidate solutions: side, cap and
// delays from the palettes, and small resource counts.
func fuzzSols(data []byte) []Solution {
	var out []Solution
	for i := 0; i+3 <= len(data) && len(out) < 96; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		maxD := fuzzDelays[b1&15]
		minD := math.Min(maxD, fuzzDelays[b1>>4])
		out = append(out, Solution{
			Up:   ctree.Side(b0 & 1),
			Cap:  fuzzCaps[(b0>>1)&15],
			MaxD: maxD, MinD: minD,
			Bufs: int(b2 & 7), TSVs: int(b2 >> 3 & 7),
			Pattern: Pattern(int(b2>>6) % numPatterns),
			left:    int32(len(out)), right: -1,
		})
	}
	return out
}

// FuzzParetoMerge runs fuzzed candidate lists through the default prune, so
// both children's sets meet the filtered merge's sortedness precondition by
// construction, and requires the pruned filtered merge to equal the pruned
// full cross product.
func FuzzParetoMerge(f *testing.F) {
	f.Add([]byte{0, 4, 1, 2, 3, 0, 5, 2, 1, 20, 20, 20}, []byte{1, 4, 9, 2, 3, 0, 6, 200, 0}, uint8(48))
	f.Add([]byte{20, 1, 0, 22, 2, 0, 24, 3, 0, 26, 12, 0, 28, 13, 0}, []byte{21, 0, 0, 20, 1, 0, 2, 12, 0, 4, 4, 0}, uint8(2))
	f.Add([]byte{0, 0, 0, 2, 255, 7, 4, 17, 9, 6, 34, 1, 8, 51, 1, 10, 68, 1}, []byte{0, 3, 3, 2, 2, 2, 4, 1, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, da, db []byte, maxPerSide uint8) {
		m := int(maxPerSide % 50)
		sc := &genScratch{}
		a := pruneInto(nil, fuzzSols(da), m, false, sc)
		b := pruneInto(nil, fuzzSols(db), m, false, sc)
		checkMerge(t, a, b, m, "fuzz")
	})
}
