package core

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/corner"
	"dscts/internal/ctree"
	"dscts/internal/eco"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// ecoPlacement generates a benchmark placement for the ECO suite.
func ecoPlacement(t *testing.T, design string) *bench.Placement {
	t.Helper()
	d, err := bench.ByID(design)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Generate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// localizedDelta builds the realistic ECO shape — a spatially local edit:
// the `count` sinks nearest to an anchor sink are touched, 3 of 4 moved by
// a small offset, every 4th removed, plus one added sink near the anchor.
func localizedDelta(sinks []geom.Point, anchor, count int) eco.Delta {
	type ds struct {
		idx  int
		dist float64
	}
	order := make([]ds, len(sinks))
	for i, p := range sinks {
		order[i] = ds{i, p.Dist(sinks[anchor])}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].dist != order[b].dist {
			return order[a].dist < order[b].dist
		}
		return order[a].idx < order[b].idx
	})
	if count > len(order) {
		count = len(order)
	}
	var d eco.Delta
	for k := 0; k < count; k++ {
		i := order[k].idx
		if k%4 == 3 {
			d.Remove = append(d.Remove, i)
			continue
		}
		off := float64(k%5) - 2 // −2..2 µm, deterministic
		d.Move = append(d.Move, eco.Move{Sink: i, To: geom.Pt(sinks[i].X+off, sinks[i].Y-off/2)})
	}
	d.Add = append(d.Add, geom.Pt(sinks[anchor].X+3, sinks[anchor].Y+3))
	return d
}

func sameMetrics(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("%s: metrics differ:\n%+v\nvs\n%+v", label, a.Metrics, b.Metrics)
	}
}

func sameTrees(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Tree.Nodes, b.Tree.Nodes) {
		t.Fatalf("%s: trees differ (%d vs %d nodes)", label, a.Tree.Len(), b.Tree.Len())
	}
}

// TestECOEmptyDeltaBitIdentity: an empty delta reproduces the prior outcome
// bit-identically — metrics, per-sink delays and tree — for both pipelines.
func TestECOEmptyDeltaBitIdentity(t *testing.T) {
	cases := []struct {
		name   string
		design string
		opt    Options
	}{
		{"monolithic", "C4", Options{RetainECO: true}},
		{"partitioned", "C5", Options{RetainECO: true, Partition: partition.Options{MaxSinks: 600}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ecoPlacement(t, tc.design)
			prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if prev.Retained == nil {
				t.Fatal("RetainECO left no state")
			}
			out, err := SynthesizeECO(prev, eco.Delta{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, tc.name, prev, out)
			sameTrees(t, tc.name, prev, out)
			if out.ECO == nil || out.ECO.DirtyScopes != 0 || out.ECO.ReusedSinks != len(p.Sinks) {
				t.Fatalf("eco stats %+v", out.ECO)
			}
		})
	}
}

// TestECOSelfMoveIdentityPartitioned: moving a sink onto its own position
// dirties its region, and the re-synthesized region must land bit-identical
// to the retained one — the strongest determinism check of the reuse path,
// because it runs the full dirty-region machinery with unchanged inputs.
func TestECOSelfMoveIdentityPartitioned(t *testing.T) {
	p := ecoPlacement(t, "C5")
	opt := Options{RetainECO: true, Partition: partition.Options{MaxSinks: 600, Macros: p.Macros}}
	prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), opt)
	if err != nil {
		t.Fatal(err)
	}
	d := eco.Delta{Move: []eco.Move{{Sink: 42, To: p.Sinks[42]}}}
	out, err := SynthesizeECO(prev, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ECO.DirtyScopes != 1 {
		t.Fatalf("self-move dirtied %d regions", out.ECO.DirtyScopes)
	}
	sameMetrics(t, "self-move", prev, out)
	sameTrees(t, "self-move", prev, out)
}

// relDiff is |a-b| / max(|a|,|b|).
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// Pinned equivalence tolerances for ECO vs full re-synthesis. They are
// loose by design: a full run re-derives clustering and partitioning from
// the post-delta placement while ECO preserves the retained structure, so
// the two trees differ — but their quality must stay in the same regime.
const (
	ecoTolLatency = 0.15 // relative
	ecoTolWL      = 0.10 // relative
	ecoTolBuffers = 0.15 // relative
	// Skew is the touchiest metric (it is a max-min of thousands of paths);
	// ECO skew must stay within a factor of the full run's plus a small
	// absolute allowance.
	ecoSkewFactor = 2.0
	ecoSkewSlack  = 15.0 // ps
)

// TestECOVsFullEquivalence: on every Table II design, a ~1% localized delta
// applied incrementally must match a full re-synthesis of the post-delta
// placement within the pinned tolerances, and the spliced tree must be
// structurally valid with exactly the post-delta sink set.
func TestECOVsFullEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full C1..C5 synthesis sweep")
	}
	cases := []struct {
		design string
		part   int // 0 = monolithic
	}{
		{"C1", 1200},
		{"C2", 4000},
		{"C3", 0},
		{"C4", 0},
		{"C5", 600},
	}
	for _, tc := range cases {
		t.Run(tc.design, func(t *testing.T) {
			p := ecoPlacement(t, tc.design)
			opt := Options{RetainECO: true}
			if tc.part > 0 {
				opt.Partition = partition.Options{MaxSinks: tc.part, Macros: p.Macros}
			}
			tcn := tech.ASAP7()
			prev, err := Synthesize(p.Root, p.Sinks, tcn, opt)
			if err != nil {
				t.Fatal(err)
			}
			d := localizedDelta(p.Sinks, len(p.Sinks)/3, len(p.Sinks)/100)
			out, err := SynthesizeECO(prev, d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := out.Tree.Validate(); err != nil {
				t.Fatalf("spliced tree invalid: %v", err)
			}
			newSinks, _ := eco.Apply(p.Sinks, d)
			if got := len(out.Metrics.SinkDelays); got != len(newSinks) {
				t.Fatalf("eco outcome covers %d of %d sinks", got, len(newSinks))
			}
			full, err := Synthesize(p.Root, newSinks, tcn, opt)
			if err != nil {
				t.Fatal(err)
			}
			em, fm := out.Metrics, full.Metrics
			t.Logf("%s: eco lat %.2f skew %.2f wl %.0f buf %d | full lat %.2f skew %.2f wl %.0f buf %d | dirty %d/%d",
				tc.design, em.Latency, em.Skew, em.WL, em.Buffers,
				fm.Latency, fm.Skew, fm.WL, fm.Buffers, out.ECO.DirtyScopes, out.ECO.TotalScopes)
			if r := relDiff(em.Latency, fm.Latency); r > ecoTolLatency {
				t.Errorf("latency diverged %.1f%%: eco %.2f vs full %.2f", 100*r, em.Latency, fm.Latency)
			}
			if r := relDiff(em.WL, fm.WL); r > ecoTolWL {
				t.Errorf("wirelength diverged %.1f%%: eco %.0f vs full %.0f", 100*r, em.WL, fm.WL)
			}
			if r := relDiff(float64(em.Buffers), float64(fm.Buffers)); r > ecoTolBuffers {
				t.Errorf("buffers diverged %.1f%%: eco %d vs full %d", 100*r, em.Buffers, fm.Buffers)
			}
			if em.Skew > fm.Skew*ecoSkewFactor+ecoSkewSlack {
				t.Errorf("skew degraded: eco %.2f vs full %.2f ps", em.Skew, fm.Skew)
			}
			if out.ECO.DirtyScopes == 0 || out.ECO.DirtyScopes == out.ECO.TotalScopes {
				t.Errorf("degenerate dirty set %d/%d", out.ECO.DirtyScopes, out.ECO.TotalScopes)
			}
		})
	}
}

// TestECOWorkersDeterminism: the incremental path, like every other phase,
// must be bit-identical at Workers=1 and Workers=8.
func TestECOWorkersDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		design string
		opt    Options
	}{
		{"monolithic", "C4", Options{RetainECO: true}},
		{"partitioned", "C5", Options{RetainECO: true, Partition: partition.Options{MaxSinks: 400}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ecoPlacement(t, tc.design)
			prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			d := localizedDelta(p.Sinks, len(p.Sinks)/2, len(p.Sinks)/50)
			one, err := SynthesizeECO(prev, d, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			eight, err := SynthesizeECO(prev, d, Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, tc.name, one, eight)
			sameTrees(t, tc.name, one, eight)
		})
	}
}

// TestECOCornersOnlyDelta: a corner-set change re-runs sign-off on the
// retained tree without dirtying anything, and the per-corner results are
// bit-identical to a full synthesis that carried the corners from the start.
func TestECOCornersOnlyDelta(t *testing.T) {
	p := ecoPlacement(t, "C4")
	tcn := tech.ASAP7()
	prev, err := Synthesize(p.Root, p.Sinks, tcn, Options{RetainECO: true})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Corners != nil {
		t.Fatal("base run unexpectedly carried corners")
	}
	cs := []corner.Corner{corner.Slow(), corner.Typ(), corner.Fast()}
	out, err := SynthesizeECO(prev, eco.Delta{SetCorners: cs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ECO.DirtyScopes != 0 {
		t.Fatalf("corner change dirtied %d scopes", out.ECO.DirtyScopes)
	}
	sameTrees(t, "corners-only", prev, out)
	want, err := Synthesize(p.Root, p.Sinks, tcn, Options{Corners: cs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Corners, want.Corners) {
		t.Fatalf("corner report differs from full run:\n%+v\nvs\n%+v", out.Corners.Summary, want.Corners.Summary)
	}
}

// TestECOAddOverflowResplits: piling adds into one region past its capacity
// re-cuts the region, keeps the partition valid, and the merged tree covers
// every post-delta sink.
func TestECOAddOverflowResplits(t *testing.T) {
	p := ecoPlacement(t, "C5")
	opt := Options{RetainECO: true, Partition: partition.Options{MaxSinks: 600, Macros: p.Macros}}
	prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), opt)
	if err != nil {
		t.Fatal(err)
	}
	before := len(prev.Regions)
	var d eco.Delta
	for i := 0; i < 250; i++ {
		d.Add = append(d.Add, geom.Pt(p.Sinks[0].X+float64(i%16), p.Sinks[0].Y+float64(i/16)))
	}
	out, err := SynthesizeECO(prev, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Regions) <= before {
		t.Fatalf("regions %d -> %d: overflow did not re-split", before, len(out.Regions))
	}
	if err := out.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(out.Metrics.SinkDelays); got != len(p.Sinks)+250 {
		t.Fatalf("outcome covers %d sinks, want %d", got, len(p.Sinks)+250)
	}
}

// TestECOClusterEmptied: removing a whole leaf cluster monolithically
// leaves a childless centroid behind and a consistent evaluation.
func TestECOClusterEmptied(t *testing.T) {
	p := ecoPlacement(t, "C4")
	prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), Options{RetainECO: true})
	if err != nil {
		t.Fatal(err)
	}
	clusterOf, _, _, err := leafClusters(prev.Tree, len(p.Sinks))
	if err != nil {
		t.Fatal(err)
	}
	var d eco.Delta
	for s, c := range clusterOf {
		if c == 0 {
			d.Remove = append(d.Remove, s)
		}
	}
	if len(d.Remove) == 0 {
		t.Fatal("cluster 0 has no sinks")
	}
	out, err := SynthesizeECO(prev, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(out.Metrics.SinkDelays); got != len(p.Sinks)-len(d.Remove) {
		t.Fatalf("outcome covers %d sinks, want %d", got, len(p.Sinks)-len(d.Remove))
	}
}

// TestECOChained: a second delta against an ECO outcome (RetainECO chained)
// keeps working and stays valid.
func TestECOChained(t *testing.T) {
	p := ecoPlacement(t, "C4")
	prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), Options{RetainECO: true})
	if err != nil {
		t.Fatal(err)
	}
	d1 := localizedDelta(p.Sinks, 10, 12)
	mid, err := SynthesizeECO(prev, d1, Options{RetainECO: true})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Retained == nil {
		t.Fatal("chained retention missing")
	}
	d2 := localizedDelta(mid.Retained.Sinks, len(mid.Retained.Sinks)-1, 8)
	out, err := SynthesizeECO(mid, d2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestECOErrorPaths: missing retained state and malformed deltas fail
// cleanly.
func TestECOErrorPaths(t *testing.T) {
	p := ecoPlacement(t, "C4")
	noState, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SynthesizeECO(noState, eco.Delta{}, Options{}); err == nil {
		t.Fatal("expected error without retained state")
	}
	prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), Options{RetainECO: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SynthesizeECO(prev, eco.Delta{Remove: []int{len(p.Sinks)}}, Options{}); err == nil {
		t.Fatal("expected error for out-of-range removal")
	}
}

// TestValidateRetained: a synthesized outcome's retained state passes,
// and each structural defect a decoded snapshot could carry is rejected.
func TestValidateRetained(t *testing.T) {
	p := ecoPlacement(t, "C4")
	synth := func(opt Options) *Outcome {
		out, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.ValidateRetained(); err != nil {
			t.Fatalf("fresh outcome: %v", err)
		}
		return out
	}
	mono := synth(Options{RetainECO: true})
	part := synth(Options{RetainECO: true, Partition: partition.Options{MaxSinks: 300}})
	if len(part.Retained.Regions) < 2 {
		t.Fatalf("partitioned base has %d regions", len(part.Retained.Regions))
	}
	// mutated copies the outcome and its retained state shallowly; a
	// mutation replaces what it changes instead of writing through.
	mutated := func(o *Outcome, f func(o *Outcome, st *ECOState)) *Outcome {
		c := *o
		st := *o.Retained
		c.Retained = &st
		f(&c, &st)
		return &c
	}
	for _, tc := range []struct {
		name string
		out  *Outcome
	}{
		{"no retained state", mutated(mono, func(o *Outcome, _ *ECOState) { o.Retained = nil })},
		{"no metrics", mutated(mono, func(o *Outcome, _ *ECOState) { o.Metrics = nil })},
		{"no tech", mutated(mono, func(_ *Outcome, st *ECOState) { st.Tech = nil })},
		{"sink missing from the tree", mutated(mono, func(_ *Outcome, st *ECOState) {
			st.Sinks = append(st.Sinks[:len(st.Sinks):len(st.Sinks)], geom.Pt(1, 1))
		})},
		{"sink index out of range", mutated(mono, func(o *Outcome, st *ECOState) {
			o.Tree = o.Tree.Clone()
			for i := range o.Tree.Nodes {
				if o.Tree.Nodes[i].Kind == ctree.KindSink {
					o.Tree.Nodes[i].SinkIdx = len(st.Sinks)
					break
				}
			}
		})},
		{"region tree dropped", mutated(part, func(_ *Outcome, st *ECOState) { st.Trees = st.Trees[:len(st.Trees)-1] })},
		{"region summary missing", mutated(part, func(_ *Outcome, st *ECOState) {
			st.Sums = append([]*eval.RegionEval{nil}, st.Sums[1:]...)
		})},
		{"regions not a partition", mutated(part, func(_ *Outcome, st *ECOState) {
			st.Regions = append([]partition.Region(nil), st.Regions...)
			st.Regions[0].Sinks = st.Regions[0].Sinks[1:]
		})},
	} {
		if err := tc.out.ValidateRetained(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := mono.ValidateRetained(); err != nil {
		t.Errorf("mutations leaked into the original: %v", err)
	}
}

// TestECOProgressGrammar pins the event sequence of an incremental run in
// both pipelines: PhaseECO begins, reports points 1..Total with Total equal
// to the dirty scope count, and is done; the partitioned pipeline then
// stitches, and both evaluate. The monolithic delta empties leaf cluster 0
// (a scope with nothing to re-run) and self-moves one sink of another
// cluster, so every re-run scope must report, emptied or not; the
// partitioned delta self-moves one sink in each of two regions.
func TestECOProgressGrammar(t *testing.T) {
	c4 := ecoPlacement(t, "C4")
	c4prev, err := Synthesize(c4.Root, c4.Sinks, tech.ASAP7(), Options{RetainECO: true})
	if err != nil {
		t.Fatal(err)
	}
	clusterOf, _, _, err := leafClusters(c4prev.Tree, len(c4.Sinks))
	if err != nil {
		t.Fatal(err)
	}
	var emptied eco.Delta
	for s, c := range clusterOf {
		if c == 0 {
			emptied.Remove = append(emptied.Remove, s)
		} else if emptied.Move == nil {
			emptied.Move = []eco.Move{{Sink: s, To: c4.Sinks[s]}}
		}
	}
	c5 := ecoPlacement(t, "C5")
	c5prev, err := Synthesize(c5.Root, c5.Sinks, tech.ASAP7(),
		Options{RetainECO: true, Partition: partition.Options{MaxSinks: 600}})
	if err != nil {
		t.Fatal(err)
	}
	var twoRegions eco.Delta
	for _, r := range c5prev.Retained.Regions[:2] {
		s := r.Sinks[0]
		twoRegions.Move = append(twoRegions.Move, eco.Move{Sink: s, To: c5.Sinks[s]})
	}
	cases := []struct {
		name  string
		prev  *Outcome
		delta eco.Delta
		tail  []string
	}{
		{"monolithic", c4prev, emptied, []string{"eval", "eval done"}},
		{"partitioned", c5prev, twoRegions, []string{"stitch", "stitch done", "eval", "eval done"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var events []Progress
			out, err := SynthesizeECO(tc.prev, tc.delta, Options{Workers: 2, Progress: func(p Progress) {
				mu.Lock()
				events = append(events, p)
				mu.Unlock()
			}})
			if err != nil {
				t.Fatal(err)
			}
			dirty := out.ECO.DirtyScopes
			if dirty < 2 {
				t.Fatalf("delta dirtied %d scopes, want several", dirty)
			}
			want := []string{"eco"}
			for range dirty {
				want = append(want, "eco point")
			}
			want = append(want, "eco done")
			want = append(want, tc.tail...)
			var got []string
			var points []int
			for _, ev := range events {
				name := string(ev.Phase)
				switch {
				case ev.Total > 0:
					name += " point"
					points = append(points, ev.Point)
					if ev.Total != dirty {
						t.Errorf("%s point %d of %d, want a total of %d dirty scopes", ev.Phase, ev.Point, ev.Total, dirty)
					}
				case ev.Done:
					name += " done"
				}
				got = append(got, name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("events\n  %q\nwant\n  %q", got, want)
			}
			slices.Sort(points)
			for i, p := range points {
				if p != i+1 {
					t.Fatalf("points %v, want 1..%d", points, dirty)
				}
			}
		})
	}
}
