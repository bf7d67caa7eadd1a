package core

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

func clusteredSinks(n int, seed int64, side float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]geom.Point, 5)
	for i := range hot {
		hot[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	out := make([]geom.Point, n)
	for i := range out {
		if rng.Float64() < 0.7 {
			h := hot[rng.Intn(len(hot))]
			out[i] = geom.Pt(
				math.Min(side, math.Max(0, h.X+rng.NormFloat64()*side/10)),
				math.Min(side, math.Max(0, h.Y+rng.NormFloat64()*side/10)))
		} else {
			out[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
	}
	return out
}

// TestRegionOrderInvariance feeds the same regions to the pipeline in
// permuted order and demands a bit-identical outcome: the stitch
// canonicalizes by region ID, so scheduling or discovery order can never
// leak into results.
func TestRegionOrderInvariance(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(4000, 3, 600)
	root := geom.Pt(300, 300)
	regions, err := partition.Split(sinks, partition.Options{MaxSinks: 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) < 3 {
		t.Fatalf("want >= 3 regions, got %d", len(regions))
	}
	opt := Options{Workers: 2, Partition: partition.Options{MaxSinks: 900}}
	base, err := synthesizeRegions(context.Background(), root, sinks, tc, opt, regions, nil, PhasePartition, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{reversedPerm(len(regions)), rotatedPerm(len(regions))} {
		shuffled := make([]partition.Region, len(regions))
		for i, p := range perm {
			shuffled[i] = regions[p]
		}
		got, err := synthesizeRegions(context.Background(), root, sinks, tc, opt, shuffled, nil, PhasePartition, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Metrics, got.Metrics) {
			t.Fatalf("metrics differ under region permutation %v:\nbase %+v\ngot  %+v", perm, base.Metrics, got.Metrics)
		}
		if base.Tree.Len() != got.Tree.Len() {
			t.Fatalf("tree size differs under permutation %v: %d vs %d", perm, base.Tree.Len(), got.Tree.Len())
		}
		if !reflect.DeepEqual(base.Tree.Nodes, got.Tree.Nodes) {
			t.Fatalf("tree nodes differ under permutation %v", perm)
		}
	}
}

// TestPartitionedDPCountersSumRegions: a partitioned outcome's DP counters
// are the sums of its regions' own, two-child merge pairs included.
func TestPartitionedDPCountersSumRegions(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(4000, 3, 600)
	opt := Options{Workers: 2, Partition: partition.Options{MaxSinks: 900}}
	out, err := Synthesize(geom.Pt(300, 300), sinks, tc, opt)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := partition.Split(sinks, opt.Partition)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, solutions, merged int
	for _, r := range regions {
		local := make([]geom.Point, len(r.Sinks))
		for j, si := range r.Sinks {
			local[j] = sinks[si]
		}
		ro, err := RunRegion(context.Background(), RegionWork{ID: r.ID, Anchor: r.Anchor, Sinks: local}, tc, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		nodes, solutions, merged = nodes+ro.DPNodes, solutions+ro.DPSolutions, merged+ro.DPMerged
	}
	if dp := out.DP; dp.Nodes != nodes || dp.Solutions != solutions || dp.Merged != merged || merged == 0 {
		t.Fatalf("DP nodes/solutions/merged %d/%d/%d, regions sum to %d/%d/%d",
			dp.Nodes, dp.Solutions, dp.Merged, nodes, solutions, merged)
	}
}

func reversedPerm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

func rotatedPerm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i + n/2) % n
	}
	return out
}

// TestPartitionSingleRegionBitIdentical pins the pipeline's safety net: a
// capacity at or above the sink count must run the monolithic flow and
// produce a bit-identical outcome (same tree, same metrics, no region
// stats).
func TestPartitionSingleRegionBitIdentical(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(1200, 9, 400)
	root := geom.Pt(200, 200)
	mono, err := Synthesize(root, sinks, tc, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Synthesize(root, sinks, tc, Options{Workers: 2, Partition: partition.Options{MaxSinks: len(sinks)}})
	if err != nil {
		t.Fatal(err)
	}
	if part.Regions != nil {
		t.Fatalf("single-region run reported %d region stats; want the monolithic path", len(part.Regions))
	}
	if !reflect.DeepEqual(mono.Metrics, part.Metrics) {
		t.Fatalf("single-region partition drifted from monolithic:\nmono %+v\npart %+v", mono.Metrics, part.Metrics)
	}
	if mono.Tree.Len() != part.Tree.Len() {
		t.Fatalf("tree size drifted: %d vs %d", mono.Tree.Len(), part.Tree.Len())
	}
}

// TestComposeHierMatchesFullEval pins the hierarchical evaluator against the
// full-tree evaluator on a real partitioned run: composed metrics must agree
// with a re-walk of the merged tree to float noise.
func TestComposeHierMatchesFullEval(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(5000, 5, 700)
	root := geom.Pt(350, 350)
	out, err := Synthesize(root, sinks, tc, Options{Partition: partition.Options{MaxSinks: 1200}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Regions) < 2 {
		t.Fatalf("expected a partitioned run, got %d regions", len(out.Regions))
	}
	if err := out.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	full, err := eval.New(tc, eval.Elmore).Evaluate(out.Tree)
	if err != nil {
		t.Fatal(err)
	}
	const relTol = 1e-9
	relClose := func(a, b float64) bool {
		if a == b {
			return true
		}
		s := math.Max(math.Abs(a), math.Abs(b))
		return math.Abs(a-b) <= relTol*s
	}
	if !relClose(out.Metrics.Latency, full.Latency) || !relClose(out.Metrics.Skew, full.Skew) {
		t.Fatalf("composed latency/skew %.9g/%.9g vs full %.9g/%.9g",
			out.Metrics.Latency, out.Metrics.Skew, full.Latency, full.Skew)
	}
	if out.Metrics.Buffers != full.Buffers || out.Metrics.NTSVs != full.NTSVs {
		t.Fatalf("composed resources %d/%d vs full %d/%d",
			out.Metrics.Buffers, out.Metrics.NTSVs, full.Buffers, full.NTSVs)
	}
	if !relClose(out.Metrics.WL, full.WL) {
		t.Fatalf("composed WL %.9g vs full %.9g", out.Metrics.WL, full.WL)
	}
	if len(out.Metrics.SinkDelays) != len(full.SinkDelays) {
		t.Fatalf("composed %d sink delays, full %d", len(out.Metrics.SinkDelays), len(full.SinkDelays))
	}
	for k, v := range full.SinkDelays {
		if !relClose(out.Metrics.SinkDelays[k], v) {
			t.Fatalf("sink %d composed delay %.12g vs full %.12g", k, out.Metrics.SinkDelays[k], v)
		}
	}
}

// TestComposeHierAnyTopEdge re-wires the longest edge of a partitioned
// run's top tree, once as a back wire with nTSVs at both ends and once as a
// mid-edge buffer, and requires the hierarchical composition to match a
// full evaluation of the grafted tree to 1e-9 relative, sink by sink: the
// top tree lowers under the same rules as every other tree.
func TestComposeHierAnyTopEdge(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(5000, 5, 700)
	out, err := Synthesize(geom.Pt(350, 350), sinks, tc, Options{
		Partition: partition.Options{MaxSinks: 1200}, RetainECO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Retained
	if len(st.Regions) < 2 {
		t.Fatalf("expected a partitioned run, got %d regions", len(st.Regions))
	}
	const relTol = 1e-9
	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
	}
	ev := eval.New(tc, eval.Elmore)
	for _, w := range []ctree.EdgeWiring{
		{WireSide: ctree.Back, TSVUp: true, TSVDown: true},
		{BufMid: true},
	} {
		top, taps, err := stitchTop(st.Root, st.Regions, st.Sums, tc, st.Opt, ev)
		if err != nil {
			t.Fatal(err)
		}
		id := 1
		for i := 2; i < top.Len(); i++ {
			if top.EdgeLen(i) > top.EdgeLen(id) {
				id = i
			}
		}
		top.Nodes[id].Wiring = w
		if err := top.Validate(); err != nil {
			t.Fatal(err)
		}
		arrivals, err := ev.TopDelays(top, taps, st.Sums)
		if err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
		got, err := ev.ComposeHier(top, arrivals, st.Sums)
		if err != nil {
			t.Fatal(err)
		}
		merged := top.Clone()
		tapOf := make([]int, len(st.Regions))
		for id, ri := range taps {
			tapOf[ri] = id
		}
		base := 0
		for ri, rt := range st.Trees {
			if base, err = graft(merged, tapOf[ri], rt, st.Regions[ri].Sinks, base); err != nil {
				t.Fatal(err)
			}
		}
		full, err := ev.Evaluate(merged)
		if err != nil {
			t.Fatal(err)
		}
		moved := false
		for ri, a := range arrivals {
			moved = moved || a != out.Regions[ri].Arrival
		}
		if !moved {
			t.Fatalf("%+v on top edge %d moved no tap arrival", w, id)
		}
		if !relClose(got.Latency, full.Latency) || !relClose(got.Skew, full.Skew) {
			t.Fatalf("%+v: composed latency/skew %.9g/%.9g vs full %.9g/%.9g",
				w, got.Latency, got.Skew, full.Latency, full.Skew)
		}
		if got.Buffers != full.Buffers || got.NTSVs != full.NTSVs || !relClose(got.WL, full.WL) {
			t.Fatalf("%+v: composed buffers/nTSVs/WL %d/%d/%.9g vs full %d/%d/%.9g",
				w, got.Buffers, got.NTSVs, got.WL, full.Buffers, full.NTSVs, full.WL)
		}
		if len(got.SinkDelays) != len(full.SinkDelays) {
			t.Fatalf("%+v: composed %d sink delays, full %d", w, len(got.SinkDelays), len(full.SinkDelays))
		}
		for k, v := range full.SinkDelays {
			if !relClose(got.SinkDelays[k], v) {
				t.Fatalf("%+v: sink %d composed delay %.12g vs full %.12g", w, k, got.SinkDelays[k], v)
			}
		}
	}
}

// TestPartitionBalancedTaps checks the cross-region skew-balancing contract:
// after the stitch, every region's worst global sink delay (tap arrival +
// region latency) sits within the balancing tolerance of the slowest one.
func TestPartitionBalancedTaps(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(6000, 13, 800)
	root := geom.Pt(400, 400)
	out, err := Synthesize(root, sinks, tc, Options{Partition: partition.Options{MaxSinks: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range out.Regions {
		worst := r.Arrival + r.Latency
		lo = math.Min(lo, worst)
		hi = math.Max(hi, worst)
	}
	if spread := hi - lo; spread > 1e-4 {
		t.Fatalf("tap misalignment %.6g ps after balancing (regions %d)", spread, len(out.Regions))
	}
	// Global skew can therefore not exceed the worst region-internal skew
	// (alignment removed the cross-region component).
	worstInternal := 0.0
	for _, r := range out.Regions {
		worstInternal = math.Max(worstInternal, r.Skew)
	}
	if out.Metrics.Skew > worstInternal+1e-4 {
		t.Fatalf("global skew %.4f exceeds worst region-internal skew %.4f", out.Metrics.Skew, worstInternal)
	}
}

// TestPartitionProgressPhases checks the new progress model: partition
// start/done with per-region points, stitch start/done, then eval.
func TestPartitionProgressPhases(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(3000, 17, 500)
	var mu sync.Mutex
	var events []Progress
	_, err := Synthesize(geom.Pt(250, 250), sinks, tc, Options{
		Partition: partition.Options{MaxSinks: 800},
		Progress:  func(p Progress) { mu.Lock(); events = append(events, p); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawPartStart, sawPartDone, sawStitch, sawEval bool
	points := 0
	for _, ev := range events {
		switch ev.Phase {
		case PhasePartition:
			if ev.Total > 0 {
				points++
			} else if ev.Done {
				sawPartDone = true
			} else {
				sawPartStart = true
			}
		case PhaseStitch:
			if ev.Done {
				sawStitch = true
			}
		case PhaseEval:
			if ev.Done {
				sawEval = true
			}
		}
	}
	if !sawPartStart || !sawPartDone || !sawStitch || !sawEval {
		t.Fatalf("missing phases: partition start=%v done=%v stitch=%v eval=%v", sawPartStart, sawPartDone, sawStitch, sawEval)
	}
	if points < 2 {
		t.Fatalf("want per-region partition points, got %d", points)
	}
}

// TestRegionOutValidate pins the check every executor result passes
// before the stitch: a real region passes, and each way a wire result can
// be malformed is an error rather than a panic.
func TestRegionOutValidate(t *testing.T) {
	sinks := clusteredSinks(200, 5, 150)
	ro, err := RunRegion(context.Background(), RegionWork{ID: 1, Anchor: geom.Pt(75, 75), Sinks: sinks},
		tech.ASAP7(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Validate(len(sinks)); err != nil {
		t.Fatalf("real region: %v", err)
	}
	if err := ro.Validate(len(sinks) - 1); err == nil {
		t.Fatal("wrong sink count accepted")
	}
	badChild := *ro
	badChild.Tree = ro.Tree.Clone()
	badChild.Tree.Nodes[0].Children = append(badChild.Tree.Nodes[0].Children, 999)
	noMetrics := *ro
	noMetrics.Sum = &eval.RegionEval{}
	// withDelays and withSinkIdx copy ro with one sink delay map or one
	// sink node's index changed.
	withDelays := func(edit func(map[int]float64)) *RegionOut {
		c, m := *ro, *ro.Sum.Metrics
		m.SinkDelays = maps.Clone(m.SinkDelays)
		edit(m.SinkDelays)
		sum := *ro.Sum
		sum.Metrics = &m
		c.Sum = &sum
		return &c
	}
	var sinkNodes []int
	for i, n := range ro.Tree.Nodes {
		if n.Kind == ctree.KindSink {
			sinkNodes = append(sinkNodes, i)
		}
	}
	withSinkIdx := func(idx int) *RegionOut {
		c := *ro
		c.Tree = ro.Tree.Clone()
		c.Tree.Nodes[sinkNodes[0]].SinkIdx = idx
		return &c
	}
	for name, bad := range map[string]*RegionOut{
		"nil": nil, "no tree": {Sum: ro.Sum}, "no metrics": &noMetrics, "child 999": &badChild,
		"extra delay":      withDelays(func(d map[int]float64) { d[len(sinks)] = 1 }),
		"missing delay":    withDelays(func(d map[int]float64) { delete(d, 0) }),
		"misplaced delay":  withDelays(func(d map[int]float64) { delete(d, 0); d[len(sinks)] = 1 }),
		"sink index high":  withSinkIdx(len(sinks)),
		"sink index twice": withSinkIdx(ro.Tree.Nodes[sinkNodes[1]].SinkIdx),
	} {
		if err := bad.Validate(len(sinks)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
