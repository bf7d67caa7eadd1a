package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/geom"
)

func randomSinks(n int, seed int64, side float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return out
}

func TestSplitCoversAndBounds(t *testing.T) {
	sinks := randomSinks(5000, 1, 1000)
	for _, strat := range []string{"", StrategyKD, StrategyGrid} {
		regions, err := Split(sinks, Options{MaxSinks: 300, Strategy: strat})
		if err != nil {
			t.Fatalf("strategy %q: %v", strat, err)
		}
		if err := Validate(regions, len(sinks)); err != nil {
			t.Fatalf("strategy %q: %v", strat, err)
		}
		if len(regions) < 2 {
			t.Fatalf("strategy %q: expected multiple regions, got %d", strat, len(regions))
		}
		for _, r := range regions {
			if len(r.Sinks) > 300 {
				t.Fatalf("strategy %q: region %d holds %d > 300 sinks", strat, r.ID, len(r.Sinks))
			}
			if !r.Box.Contains(r.Anchor, 1e-9) {
				t.Fatalf("strategy %q: region %d anchor %v outside box", strat, r.ID, r.Anchor)
			}
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	sinks := randomSinks(3000, 7, 800)
	opt := Options{MaxSinks: 250, Macros: []geom.BBox{geom.NewBBox(geom.Pt(100, 100), geom.Pt(300, 400))}}
	a, err := Split(sinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(sinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Split is not deterministic")
	}
}

func TestSplitSingleRegion(t *testing.T) {
	sinks := randomSinks(100, 3, 50)
	for _, opt := range []Options{{}, {MaxSinks: 100}, {MaxSinks: 5000}} {
		regions, err := Split(sinks, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regions) != 1 || len(regions[0].Sinks) != 100 {
			t.Fatalf("opt %+v: want one full region, got %d regions", opt, len(regions))
		}
	}
}

// TestMacroAwareCut pins the macro-aware nudge: with a macro straddling the
// population median, the chosen cut line must not pass through it.
func TestMacroAwareCut(t *testing.T) {
	// Two uniform halves with a macro centered on the X median.
	var sinks []geom.Point
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		sinks = append(sinks, geom.Pt(rng.Float64()*1000, rng.Float64()*100))
	}
	macro := geom.NewBBox(geom.Pt(460, -10), geom.Pt(540, 110))
	regions, err := Split(sinks, Options{MaxSinks: 600, Macros: []geom.BBox{macro}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(regions, len(sinks)); err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("want 2 regions, got %d", len(regions))
	}
	// The cut line lies between the two regions' X extents; it must avoid
	// the macro interior.
	line := (regions[0].Box.MaxX + regions[1].Box.MinX) / 2
	if line > macro.MinX && line < macro.MaxX {
		t.Fatalf("cut line %.1f runs through macro [%.1f, %.1f]", line, macro.MinX, macro.MaxX)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{MaxSinks: -1}).Validate(); err == nil {
		t.Fatal("negative MaxSinks accepted")
	}
	if err := (Options{Strategy: "voronoi"}).Validate(); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := Split(nil, Options{MaxSinks: 10}); err == nil {
		t.Fatal("empty sink set accepted")
	}
}

func TestGridStrategyBoundsOverfullCells(t *testing.T) {
	// A single dense hotspot: uniform grid cells overflow and must be
	// kd-split down to capacity.
	var sinks []geom.Point
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		sinks = append(sinks, geom.Pt(500+rng.NormFloat64(), 500+rng.NormFloat64()))
	}
	for i := 0; i < 500; i++ {
		sinks = append(sinks, geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
	}
	regions, err := Split(sinks, Options{MaxSinks: 200, Strategy: StrategyGrid})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(regions, len(sinks)); err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if len(r.Sinks) > 200 {
			t.Fatalf("region %d holds %d > 200 sinks", r.ID, len(r.Sinks))
		}
	}
}

// refSplit is Split as it was before the presorted lanes: a sort.Slice
// median cut per level and a sort.Ints per group. TestSplitMatchesReference
// holds Split and SplitMembers to it region for region.
func refSplit(sinks []geom.Point, opt Options) []Region {
	all := make([]int, len(sinks))
	for i := range all {
		all[i] = i
	}
	if !opt.Enabled() || len(sinks) <= opt.MaxSinks {
		return []Region{makeRegion(0, sinks, all)}
	}
	var groups [][]int
	if opt.Strategy == StrategyGrid {
		for _, cell := range gridGroups(sinks, all, opt.MaxSinks) {
			groups = refKDSplit(sinks, cell, opt, groups)
		}
	} else {
		groups = refKDSplit(sinks, all, opt, nil)
	}
	out := make([]Region, len(groups))
	for i, g := range groups {
		sort.Ints(g)
		out[i] = makeRegion(i, sinks, g)
	}
	return out
}

func refSplitMembers(sinks []geom.Point, members []int, opt Options) [][]int {
	groups := refKDSplit(sinks, append([]int(nil), members...), opt, nil)
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

func refKDSplit(sinks []geom.Point, members []int, opt Options, acc [][]int) [][]int {
	if len(members) <= opt.MaxSinks {
		return append(acc, members)
	}
	var box geom.BBox
	for _, si := range members {
		box.Grow(sinks[si])
	}
	vertical := box.W() >= box.H()
	coord := func(si int) float64 {
		if vertical {
			return sinks[si].X
		}
		return sinks[si].Y
	}
	other := func(si int) float64 {
		if vertical {
			return sinks[si].Y
		}
		return sinks[si].X
	}
	sorted := append([]int(nil), members...)
	sort.Slice(sorted, func(a, b int) bool {
		ia, ib := sorted[a], sorted[b]
		ca, cb := coord(ia), coord(ib)
		if ca != cb {
			return ca < cb
		}
		if oa, ob := other(ia), other(ib); oa != ob {
			return oa < ob
		}
		return ia < ib
	})
	cut := refNudge(sorted, len(sorted)/2, coord, box, vertical, opt.Macros)
	acc = refKDSplit(sinks, sorted[:cut], opt, acc)
	return refKDSplit(sinks, sorted[cut:], opt, acc)
}

func refNudge(sorted []int, cut int, coord func(int) float64, box geom.BBox, vertical bool, macros []geom.BBox) int {
	if len(macros) == 0 {
		return cut
	}
	legal := func(c int) bool {
		if c <= 0 || c >= len(sorted) {
			return false
		}
		line := (coord(sorted[c-1]) + coord(sorted[c])) / 2
		for _, m := range macros {
			var cutsMacro bool
			if vertical {
				cutsMacro = line > m.MinX && line < m.MaxX &&
					box.MinY < m.MaxY && box.MaxY > m.MinY
			} else {
				cutsMacro = line > m.MinY && line < m.MaxY &&
					box.MinX < m.MaxX && box.MaxX > m.MinX
			}
			if cutsMacro {
				return false
			}
		}
		return true
	}
	if legal(cut) {
		return cut
	}
	for d := 1; d < len(sorted); d++ {
		if legal(cut - d) {
			return cut - d
		}
		if legal(cut + d) {
			return cut + d
		}
	}
	return cut
}

// TestSplitMatchesReference requires the presorted kd split to reproduce
// the sort-per-level reference exactly, on placements chosen to stress the
// comparator: real XL placements with macros, coordinate ties, coincident
// sinks, signed zeros, and a macro that moves the median cut.
func TestSplitMatchesReference(t *testing.T) {
	type layout struct {
		name   string
		sinks  []geom.Point
		macros []geom.BBox
		caps   []int
	}
	var layouts []layout
	for _, xl := range []struct {
		sinks int
		seed  int64
	}{{120_000, 7919}, {80_000, 2}} {
		p, err := bench.GenerateXL(xl.sinks, xl.seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Macros) == 0 {
			t.Fatalf("seed %d: XL placement has no macros", xl.seed)
		}
		name := fmt.Sprintf("xl%d-seed%d", xl.sinks, xl.seed)
		layouts = append(layouts, layout{name, p.Sinks, p.Macros, []int{50_000, 10_000, 3_000}})
	}

	var lattice []geom.Point
	for i := 0; i < 2; i++ { // every lattice point twice
		for y := 0; y < 60; y++ {
			for x := 0; x < 80; x++ {
				lattice = append(lattice, geom.Pt(float64(x), float64(y)))
			}
		}
	}
	latticeMacro := []geom.BBox{geom.NewBBox(geom.Pt(35.5, -1), geom.Pt(44.5, 61))}
	layouts = append(layouts, layout{"lattice", lattice, latticeMacro, []int{5000, 700, 97, 13}})

	rng := rand.New(rand.NewSource(3))
	spots := []geom.Point{geom.Pt(10, 10), geom.Pt(10, 10), geom.Pt(400, 10), geom.Pt(10, 250)}
	var coincident []geom.Point
	for i := 0; i < 2000; i++ {
		coincident = append(coincident, spots[rng.Intn(len(spots))])
	}
	layouts = append(layouts, layout{"coincident", coincident, nil, []int{1500, 300, 7}})

	negZero := math.Copysign(0, -1)
	var signed []geom.Point
	for i := 0; i < 3000; i++ {
		x, y := rng.Float64()*1000-500, rng.Float64()*600-300
		switch rng.Intn(6) {
		case 0:
			x = negZero
		case 1:
			x = 0
		case 2:
			y = negZero
		case 3:
			y = 0
		}
		signed = append(signed, geom.Pt(x, y))
	}
	signedMacro := []geom.BBox{geom.NewBBox(geom.Pt(-20, -400), geom.Pt(20, 400))}
	layouts = append(layouts, layout{"signed-zero", signed, nil, []int{1000, 64}})
	layouts = append(layouts, layout{"signed-zero-macro", signed, signedMacro, []int{1000, 64}})

	var strip []geom.Point
	rng = rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		strip = append(strip, geom.Pt(rng.Float64()*1000, rng.Float64()*100))
	}
	stripMacro := []geom.BBox{geom.NewBBox(geom.Pt(460, -10), geom.Pt(540, 110))}
	layouts = append(layouts, layout{"macro-aware", strip, stripMacro, []int{600, 100}})

	for _, l := range layouts {
		for _, maxSinks := range l.caps {
			for _, strat := range []string{StrategyKD, StrategyGrid} {
				opt := Options{MaxSinks: maxSinks, Strategy: strat, Macros: l.macros}
				got, err := Split(l.sinks, opt)
				if err != nil {
					t.Fatalf("%s cap %d %s: %v", l.name, maxSinks, strat, err)
				}
				if want := refSplit(l.sinks, opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cap %d %s: %d regions differ from the reference's %d",
						l.name, maxSinks, strat, len(got), len(want))
				}
			}
			// A shuffled two-thirds subset exercises SplitMembers' own
			// ordering and the gaps in the index range.
			var members []int
			for i := range l.sinks {
				if i%3 != 1 {
					members = append(members, i)
				}
			}
			rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
			opt := Options{MaxSinks: maxSinks, Macros: l.macros}
			got, err := SplitMembers(l.sinks, members, opt)
			if err != nil {
				t.Fatalf("%s cap %d members: %v", l.name, maxSinks, err)
			}
			if want := refSplitMembers(l.sinks, members, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cap %d: SplitMembers' %d groups differ from the reference's %d",
					l.name, maxSinks, len(got), len(want))
			}
		}
	}
}

// TestSplitRejectsNonFinite: a NaN or infinite coordinate has no place in
// the cut order, so both entry points refuse it and name the sink.
func TestSplitRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for axis := 0; axis < 2; axis++ {
			sinks := randomSinks(400, 9, 100)
			if axis == 0 {
				sinks[17].X = bad
			} else {
				sinks[17].Y = bad
			}
			for _, opt := range []Options{{}, {MaxSinks: 50}, {MaxSinks: 50, Strategy: StrategyGrid}} {
				if _, err := Split(sinks, opt); err == nil || !strings.Contains(err.Error(), "sink 17") {
					t.Fatalf("Split with %v on axis %d, opt %+v: err %v", bad, axis, opt, err)
				}
			}
			if _, err := SplitMembers(sinks, []int{3, 17, 40}, Options{MaxSinks: 2}); err == nil || !strings.Contains(err.Error(), "sink 17") {
				t.Fatalf("SplitMembers with %v on axis %d: err %v", bad, axis, err)
			}
			if _, err := SplitMembers(sinks, []int{3, 40, 41}, Options{MaxSinks: 2}); err != nil {
				t.Fatalf("SplitMembers without the bad sink: %v", err)
			}
		}
	}
}

func TestSplitMembersRejectsBadMembers(t *testing.T) {
	sinks := randomSinks(100, 4, 50)
	for _, members := range [][]int{{1, 2, 2}, {-1, 3}, {5, 100}} {
		if _, err := SplitMembers(sinks, members, Options{MaxSinks: 1}); err == nil {
			t.Fatalf("members %v accepted", members)
		}
	}
}

func TestRadixSortStableByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := []float64{math.Copysign(0, -1), 0, -1e-300, 1e-300, -3.5, 3.5, 1e300, -1e300, 7, 7}
	type entry struct {
		key uint64
		pos int32
	}
	want := make([]entry, 5000)
	keys := make([]uint64, len(want))
	pos := make([]int32, len(want))
	for i := range want {
		keys[i], pos[i] = floatKey(vals[rng.Intn(len(vals))]), int32(i)
		want[i] = entry{keys[i], pos[i]}
	}
	slices.SortStableFunc(want, func(x, y entry) int { return cmp.Compare(x.key, y.key) })
	radixSort(keys, pos, make([]uint64, len(keys)), make([]int32, len(pos)))
	for i, e := range want {
		if keys[i] != e.key || pos[i] != e.pos {
			t.Fatalf("entry %d: radix sort gives (%x, %d), a stable comparison sort (%x, %d)", i, keys[i], pos[i], e.key, e.pos)
		}
	}
	for i := range vals {
		for j := range vals {
			if (vals[i] < vals[j]) != (floatKey(vals[i]) < floatKey(vals[j])) {
				t.Fatalf("key order of %g and %g disagrees with the float order", vals[i], vals[j])
			}
		}
	}
}
