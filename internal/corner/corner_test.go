package corner

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"dscts/internal/cluster"
	"dscts/internal/ctree"
	"dscts/internal/dme"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/tech"
)

func TestPresetsValidateAndApply(t *testing.T) {
	tc := tech.ASAP7()
	for _, c := range Presets() {
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %s: %v", c.Name, err)
		}
		derived := c.Apply(tc)
		if err := derived.Validate(); err != nil {
			t.Fatalf("preset %s derived tech: %v", c.Name, err)
		}
	}
	// Apply must not mutate the input technology.
	ref := tech.ASAP7()
	Slow().Apply(tc)
	if tc.Buf.DriveRes != ref.Buf.DriveRes || tc.Layers[0].UnitRes != ref.Layers[0].UnitRes {
		t.Fatal("Apply mutated the input tech")
	}
}

func TestApplyScalesEveryAxis(t *testing.T) {
	tc := tech.ASAP7()
	c := Corner{
		Name:    "x",
		WireRes: 2, WireCap: 3,
		BufRes: 1.5, BufCap: 1.25, BufIntrinsic: 1.1,
		TSVRes: 1.2, TSVCap: 1.3,
		SinkCap: 1.4,
	}
	d := c.Apply(tc)
	for i, l := range tc.Layers {
		if got, want := d.Layers[i].UnitRes, l.UnitRes*2; math.Abs(got-want) > 1e-15 {
			t.Fatalf("layer %s res %g want %g", l.Name, got, want)
		}
		if got, want := d.Layers[i].UnitCap, l.UnitCap*3; math.Abs(got-want) > 1e-15 {
			t.Fatalf("layer %s cap %g want %g", l.Name, got, want)
		}
	}
	if d.Buf.DriveRes != tc.Buf.DriveRes*1.5 || d.Buf.InputCap != tc.Buf.InputCap*1.25 || d.Buf.Intrinsic != tc.Buf.Intrinsic*1.1 {
		t.Fatalf("buffer not scaled: %+v", d.Buf)
	}
	if d.TSV.Res != tc.TSV.Res*1.2 || d.TSV.Cap != tc.TSV.Cap*1.3 {
		t.Fatalf("tsv not scaled: %+v", d.TSV)
	}
	if d.SinkCap != tc.SinkCap*1.4 {
		t.Fatalf("sink cap not scaled: %g", d.SinkCap)
	}
	// Unset factors mean unchanged.
	u := Corner{Name: "u", BufRes: 2}.Apply(tc)
	if u.Layers[2].UnitRes != tc.Layers[2].UnitRes || u.SinkCap != tc.SinkCap {
		t.Fatal("unset factors must leave axes unchanged")
	}
	if u.Buf.DriveRes != tc.Buf.DriveRes*2 {
		t.Fatal("set factor ignored")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Corner{
		{},                               // unnamed
		{Name: "bad", WireRes: -1},       // negative
		{Name: "bad", BufRes: 11},        // implausibly large
		{Name: "bad", SinkCap: 1.0 / 20}, // implausibly small
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("corner %+v validated", c)
		}
	}
}

func TestByNameAndParseList(t *testing.T) {
	if _, err := ByName("SLOW"); err != nil {
		t.Fatalf("case-insensitive lookup: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown corner accepted")
	}
	cs, err := ParseList("slow, typ,fast")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 || cs[0].Name != "slow" || cs[2].Name != "fast" {
		t.Fatalf("parsed %+v", cs)
	}
	for _, bad := range []string{"", "slow,slow", "slow,wat"} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("ParseList(%q) accepted", bad)
		}
	}
	if cs, err := Resolve(nil); cs != nil || err != nil {
		t.Fatalf("Resolve(nil) = %+v, %v; want no corners and no error", cs, err)
	}
	if _, err := Resolve([]string{"typ", "TYP"}); err == nil {
		t.Error("Resolve accepted a repeated name")
	}
}

func TestLoadJSON(t *testing.T) {
	src := `[
	  {"name": "cold", "wire_res": 0.9, "buf_res": 0.8},
	  {"name": "hot",  "wire_res": 1.15, "buf_res": 1.3, "buf_intrinsic": 1.2}
	]`
	cs, err := LoadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != "cold" || cs[1].BufIntrinsic != 1.2 {
		t.Fatalf("loaded %+v", cs)
	}
	// Unset factors resolve to 1.
	if cs[0].SinkCap != 1 || cs[0].TSVCap != 1 {
		t.Fatalf("defaults not applied: %+v", cs[0])
	}
	for _, bad := range []string{
		`[]`,
		`[{"wire_res": 1.0}]`,              // unnamed
		`[{"name":"a"},{"name":"a"}]`,      // duplicate
		`[{"name":"a","wire_res":99}]`,     // implausible
		`[{"name":"a","unknown_field":1}]`, // unknown field
		`{"name":"a"}`,                     // not an array
	} {
		if _, err := LoadJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadJSON(%q) accepted", bad)
		}
	}
}

func TestInterpolate(t *testing.T) {
	a, b := Slow(), Fast()
	if got := Interpolate(a, b, 0, "k"); got.BufRes != a.BufRes {
		t.Fatalf("t=0 gave %+v", got)
	}
	if got := Interpolate(a, b, 1, "k"); got.BufRes != b.BufRes {
		t.Fatalf("t=1 gave %+v", got)
	}
	mid := Interpolate(a, b, 0.5, "mid")
	want := (a.WireCap + b.WireCap) / 2
	if math.Abs(mid.WireCap-want) > 1e-15 {
		t.Fatalf("midpoint wire cap %g want %g", mid.WireCap, want)
	}
	if err := mid.Validate(); err != nil {
		t.Fatal(err)
	}
}

// smallTree builds a deterministic little clock tree for sign-off tests.
func smallTree(t *testing.T, tc *tech.Tech) *ctree.Tree {
	t.Helper()
	var sinks []geom.Point
	for i := 0; i < 60; i++ {
		sinks = append(sinks, geom.Pt(float64(i%10)*20, float64(i/10)*25))
	}
	front := tc.Front()
	d := cluster.DefaultDualOptions()
	d.CapOf = func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) }
	d.CapLimit = 0.6 * tc.Buf.MaxCap
	dual, err := cluster.DualLevel(sinks, d)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dme.HierarchicalRoute(geom.Pt(90, 60), sinks, dual, tc, dme.HierOptions{MaxTrunkEdge: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert.Run(tree, insert.DefaultConfig(tc)); err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestEvaluateAcrossCorners(t *testing.T) {
	tc := tech.ASAP7()
	tree := smallTree(t, tc)
	var calls atomic.Int64
	onCorner := func(done, total int) {
		calls.Add(1)
		if total != 3 || done < 1 || done > 3 {
			t.Errorf("OnCorner(%d, %d)", done, total)
		}
	}
	rep, err := Evaluate(context.Background(), tree, tc, Presets(), Options{Workers: 2, OnCorner: onCorner})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("%d results", len(rep.Results))
	}
	if calls.Load() != 3 {
		t.Fatalf("OnCorner called %d times for 3 corners", calls.Load())
	}
	slow, typ, fast := rep.ByName("slow"), rep.ByName("typ"), rep.ByName("fast")
	if slow == nil || typ == nil || fast == nil {
		t.Fatal("missing corner result")
	}
	// Physics: slow corner must be slower than typ, typ slower than fast.
	if !(slow.Metrics.Latency > typ.Metrics.Latency && typ.Metrics.Latency > fast.Metrics.Latency) {
		t.Fatalf("latency ordering violated: slow %g typ %g fast %g",
			slow.Metrics.Latency, typ.Metrics.Latency, fast.Metrics.Latency)
	}
	// Structure is corner-independent: same tree, same counts.
	if slow.Metrics.Buffers != typ.Metrics.Buffers || slow.Metrics.WL != typ.Metrics.WL {
		t.Fatal("corner evaluation changed tree structure")
	}
	s := rep.Summary
	if s.WorstLatency != slow.Metrics.Latency || s.WorstLatencyCorner != "slow" {
		t.Fatalf("worst latency summary %+v", s)
	}
	wantSpread := slow.Metrics.Latency - fast.Metrics.Latency
	if math.Abs(s.LatencySpread-wantSpread) > 1e-12 {
		t.Fatalf("latency spread %g want %g", s.LatencySpread, wantSpread)
	}
	if s.MaxDivergence <= 0 || s.MaxDivergence < s.LatencySpread-1e-9 {
		// The worst sink's divergence is at least the latency spread when
		// the same sink is critical everywhere, and positive regardless.
		t.Fatalf("divergence %g implausible against spread %g", s.MaxDivergence, s.LatencySpread)
	}
	if s.WorstSkew < typ.Metrics.Skew {
		t.Fatalf("worst skew %g below typ %g", s.WorstSkew, typ.Metrics.Skew)
	}
}

func TestEvaluateDeterminismAcrossWorkersAndOrder(t *testing.T) {
	tc := tech.ASAP7()
	tree := smallTree(t, tc)
	// Eight corners exercise real fan-out.
	var corners []Corner
	for i := 0; i < 8; i++ {
		corners = append(corners, Interpolate(Slow(), Fast(), float64(i)/7, names8[i]))
	}
	run := func(workers int, cs []Corner) *Report {
		rep, err := Evaluate(context.Background(), tree, tc, cs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1, corners), run(8, corners)
	for i := range a.Results {
		ma, mb := a.Results[i].Metrics, b.Results[i].Metrics
		if ma.Latency != mb.Latency || ma.Skew != mb.Skew || ma.WL != mb.WL {
			t.Fatalf("workers changed corner %s: %+v vs %+v", a.Results[i].Corner.Name, ma, mb)
		}
		for sink, d := range ma.SinkDelays {
			if mb.SinkDelays[sink] != d {
				t.Fatalf("sink %d delay differs at corner %s", sink, a.Results[i].Corner.Name)
			}
		}
	}
	if a.Summary != b.Summary {
		t.Fatalf("summary differs: %+v vs %+v", a.Summary, b.Summary)
	}
	// Permuting the corner order permutes results but changes no metric.
	perm := []Corner{corners[5], corners[0], corners[7], corners[2], corners[6], corners[1], corners[3], corners[4]}
	c := run(3, perm)
	for i, pc := range perm {
		got := c.Results[i]
		if got.Corner.Name != pc.Name {
			t.Fatalf("merge order broken: result %d is %s want %s", i, got.Corner.Name, pc.Name)
		}
		ref := a.ByName(pc.Name)
		if got.Metrics.Latency != ref.Metrics.Latency || got.Metrics.Skew != ref.Metrics.Skew {
			t.Fatalf("corner %s metrics differ under permutation", pc.Name)
		}
	}
	// Summary is order-free.
	if c.Summary.WorstSkew != a.Summary.WorstSkew || c.Summary.MaxDivergence != a.Summary.MaxDivergence ||
		c.Summary.LatencySpread != a.Summary.LatencySpread || c.Summary.WorstLatency != a.Summary.WorstLatency {
		t.Fatalf("summary depends on corner order: %+v vs %+v", c.Summary, a.Summary)
	}
}

var names8 = []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

func TestEvaluateErrors(t *testing.T) {
	tc := tech.ASAP7()
	tree := smallTree(t, tc)
	if _, err := Evaluate(context.Background(), tree, tc, nil, Options{}); err == nil {
		t.Fatal("empty corner set accepted")
	}
	dup := []Corner{Typ(), Typ()}
	if _, err := Evaluate(context.Background(), tree, tc, dup, Options{}); err == nil {
		t.Fatal("duplicate corners accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, tree, tc, Presets(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err %v, want one wrapping context.Canceled", err)
	}
}

func TestEvaluateNLDMMode(t *testing.T) {
	tc := tech.ASAP7()
	tree := smallTree(t, tc)
	rep, err := Evaluate(context.Background(), tree, tc, Presets(), Options{Mode: eval.NLDM})
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := rep.ByName("slow"), rep.ByName("fast")
	if !(slow.Metrics.Latency > fast.Metrics.Latency) {
		t.Fatalf("NLDM corner ordering violated: slow %g fast %g", slow.Metrics.Latency, fast.Metrics.Latency)
	}
	if slow.Metrics.MaxSlew <= fast.Metrics.MaxSlew {
		t.Fatalf("slow corner slew %g not above fast %g", slow.Metrics.MaxSlew, fast.Metrics.MaxSlew)
	}
}

// Interpolate blends two corners: t=0 returns a, t=1 returns b, with every
// factor interpolated linearly in between (t outside [0,1] extrapolates).
// Tests use it to synthesize corner sweeps between the slow and fast
// presets; it is exported so the external reference tests reach it too.
func Interpolate(a, b Corner, t float64, name string) Corner {
	na, nb := a.Normalize(), b.Normalize()
	out := Corner{Name: name}
	fa, fb, fo := na.factors(), nb.factors(), out.factors()
	for i := range fo {
		*fo[i] = *fa[i] + t*(*fb[i]-*fa[i])
	}
	return out
}
