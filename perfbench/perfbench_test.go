package main

import (
	"context"
	"math"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/tech"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{n: 0},
		{n: 50}, // 5 beyond p90: omitted
		{n: 99}, // p90 is rank 90, 9 beyond: omitted
		{n: 100, ok: true, p: 90, value: 90, beyond: 10},  // exactly ten beyond p90
		{n: 199, ok: true, p: 90, value: 180, beyond: 19}, // p95 leaves 9 beyond: falls back to p90
		{n: 1000, ok: true, p: 99, value: 990, beyond: 10},
		{n: 10000, ok: true, p: 99.9, value: 9990, beyond: 10},
	}
	for _, c := range cases {
		got, ok := tailPercentile(seq(c.n))
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if !ok {
			continue
		}
		if got.P != c.p || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g=%g with %d beyond", c.n, got, c.p, c.value, c.beyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: reported a percentile with only %d samples beyond", c.n, got.Beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 100})
	if err != nil || math.Abs(g-10) > 1e-12 {
		t.Fatalf("geomean(1,100) = %g, %v", g, err)
	}
	g, err = geomean([]float64{2, 8, 4})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8,4) = %g, %v", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted", bad)
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"suite-mono":     func(s int64) any { return suiteOps(s) },
		"xl-partitioned": func(s int64) any { return xlWorkFor(s) },
		"serve-mixed": func(s int64) any {
			st, err := serveOps(s)
			if err != nil {
				t.Fatal(err)
			}
			return st.ops
		},
	}
	for name, gen := range gens {
		fp := func(seed int64) string {
			h, err := fingerprint(name, gen(seed))
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		a, b, c := fp(7), fp(7), fp(8)
		if a != b {
			t.Errorf("%s: same seed gave %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same fingerprint %s", name, a)
		}
	}
}

func TestSuiteOpsStartWithGoldenDesigns(t *testing.T) {
	ops := suiteOps(3)
	for i, d := range bench.Suite() {
		if ops[i] != (suiteOp{Design: d.ID, Seed: 1}) {
			t.Fatalf("op %d is %+v, want %s at seed 1", i, ops[i], d.ID)
		}
	}
}

func TestServeRepeatsReachBack(t *testing.T) {
	st, err := serveOps(5)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, op := range st.ops[:700] {
		if op.Class != "hit" {
			continue
		}
		hits++
		if op.Of > i-2 && op.Of != 0 || st.ops[op.Of].Class == "hit" || i-op.Of > repeatWindow && op.Of != 0 {
			t.Fatalf("op %d repeats op %d", i, op.Of)
		}
	}
	if hits != 400 {
		t.Fatalf("%d hits in the first 700 ops, want 400", hits)
	}
}

func TestReplicaMatchesSynthesize(t *testing.T) {
	d, err := bench.ByID("C4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Generate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	tc := tech.ASAP7()
	out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{Workers: libWorkers})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var layers tally
	root := tr.begin(0, 0, "op")
	m, err := replica(context.Background(), tr, 0, root, placement{root: p.Root, sinks: p.Sinks}, tc, libWorkers, &layers)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestOf(m, true), digestOf(out.Metrics, true); got != want {
		t.Fatalf("replica %+v, core.Synthesize %+v", got, want)
	}
	if layers.get("insert.dp_nodes") != float64(out.DP.Nodes) {
		t.Errorf("replica DP nodes %g, core %d", layers.get("insert.dp_nodes"), out.DP.Nodes)
	}
	self := selfTimes(tr.snapshot())
	for _, l := range []string{"cluster", "dme", "insert", "refine"} {
		if self[l] <= 0 {
			t.Errorf("no self time recorded for %s", l)
		}
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Layer: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 0, Layer: "a", Start: 10, End: 50},
		{ID: 3, Parent: 2, Op: 0, Layer: "b", Start: 20, End: 30},
		{ID: 4, Parent: 2, Op: 0, Layer: "b", Start: 25, End: 40}, // overlaps its sibling
		{ID: 5, Parent: 1, Op: 0, Layer: "c", Start: 60, End: 90},
	}
	self := selfTimes(spans)
	want := map[string]float64{"op": 0.030, "a": 0.020, "b": 0.025, "c": 0.030} // ms; spans are in µs
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-12 {
			t.Errorf("self[%s] = %g, want %g", k, self[k], v)
		}
	}
	if got := coverage(spans); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("coverage %g, want 0.7", got)
	}
}

func TestWindowRate(t *testing.T) {
	// Ten ops at 0.1 s each, then a stall: the windows before the stall
	// carry the median, where the plain rate would read 12/5.1.
	var done []float64
	for i := 1; i <= 10; i++ {
		done = append(done, float64(i)/10)
	}
	done = append(done, 5, 5.1)
	if got := windowRate(done, 2); math.Abs(got-10) > 1e-9 {
		t.Errorf("windowRate = %g, want 10", got)
	}
	if got := windowRate(done[:3], 5); math.Abs(got-10) > 1e-9 {
		t.Errorf("short run: windowRate = %g, want the plain rate 10", got)
	}
	if got := windowRate(nil, 5); got != 0 {
		t.Errorf("no ops: windowRate = %g", got)
	}
}
