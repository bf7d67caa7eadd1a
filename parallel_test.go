package dscts

// Determinism regression tests for the parallel execution engine: the
// worker count must never change the synthesized result. Every parallel
// loop in the flow distributes pure per-item work (nearest-centroid
// queries, DP subtree generation, corner views, DSE sweep
// points) and all floating-point reductions run in a fixed order, so
// Workers=1 and Workers=N are required to produce identical Metrics — not
// merely close ones.

import (
	"math"
	"testing"

	"dscts/internal/cluster"
	"dscts/internal/core"
	"dscts/internal/dse"
)

func metricsIdentical(t *testing.T, label string, a, b *Metrics) {
	t.Helper()
	if a.Latency != b.Latency || a.Skew != b.Skew {
		t.Errorf("%s: latency/skew differ: (%v, %v) vs (%v, %v)", label, a.Latency, a.Skew, b.Latency, b.Skew)
	}
	if a.Buffers != b.Buffers || a.NTSVs != b.NTSVs {
		t.Errorf("%s: resources differ: (%d bufs, %d tsvs) vs (%d, %d)", label, a.Buffers, a.NTSVs, b.Buffers, b.NTSVs)
	}
	if a.WL != b.WL {
		t.Errorf("%s: wirelength differs: %v vs %v", label, a.WL, b.WL)
	}
	if len(a.SinkDelays) != len(b.SinkDelays) {
		t.Fatalf("%s: sink coverage differs: %d vs %d", label, len(a.SinkDelays), len(b.SinkDelays))
	}
	for idx, d := range a.SinkDelays {
		if bd, ok := b.SinkDelays[idx]; !ok || bd != d {
			t.Errorf("%s: sink %d delay differs: %v vs %v", label, idx, d, bd)
			return
		}
	}
}

// TestWorkersDeterminism synthesizes every built-in benchmark with one
// worker and with eight and requires bit-identical Metrics (latency, skew,
// buffers, nTSVs, wirelength and every per-sink delay).
func TestWorkersDeterminism(t *testing.T) {
	tc := ASAP7()
	for _, id := range Benchmarks() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && id != "C4" && id != "C5" {
				t.Skip("large design skipped with -short")
			}
			p, err := GenerateBenchmark(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Synthesize(p.Root, p.Sinks, tc, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parl, err := Synthesize(p.Root, p.Sinks, tc, Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			metricsIdentical(t, id+" workers 1 vs 8", seq.Metrics, parl.Metrics)
			if math.IsNaN(seq.Metrics.Latency) || seq.Metrics.Latency <= 0 {
				t.Fatalf("implausible latency %v", seq.Metrics.Latency)
			}
		})
	}
}

// TestWorkCounterPins pins the deterministic work counters of every
// built-in benchmark at placement seed 1, at one worker and at eight: the
// clustering's Lloyd passes, assignments and nearest-centroid searches, and
// the DP's nodes, generated solutions and two-child merge pairs. A kernel
// change that skips work shows here as a deliberate re-pin, next to
// unchanged golden metrics.
func TestWorkCounterPins(t *testing.T) {
	pins := map[string]struct {
		cluster                  cluster.Work
		nodes, solutions, merged int
	}{
		"C1": {cluster.Work{Iterations: 840, Assignments: 165185, Searches: 17169}, 815, 14852, 4342},
		"C2": {cluster.Work{Iterations: 2613, Assignments: 802815, Searches: 104340}, 2562, 48902, 13884},
		"C3": {cluster.Work{Iterations: 1510, Assignments: 588790, Searches: 58055}, 1550, 28877, 8986},
		"C4": {cluster.Work{Iterations: 200, Assignments: 19958, Searches: 2934}, 186, 3138, 993},
		"C5": {cluster.Work{Iterations: 434, Assignments: 44868, Searches: 6146}, 424, 8204, 2257},
	}
	tc := ASAP7()
	for _, id := range Benchmarks() {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && id != "C4" && id != "C5" {
				t.Skip("large design skipped with -short")
			}
			want, ok := pins[id]
			if !ok {
				t.Fatalf("no pinned counters for %s", id)
			}
			p, err := GenerateBenchmark(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 8} {
				out, err := Synthesize(p.Root, p.Sinks, tc, Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if got := out.Dual.Work; got != want.cluster {
					t.Errorf("workers %d: clustering work %+v, pinned %+v", w, got, want.cluster)
				}
				dp := out.DP
				if dp.Nodes != want.nodes || dp.Solutions != want.solutions || dp.Merged != want.merged {
					t.Errorf("workers %d: DP nodes/solutions/merged %d/%d/%d, pinned %d/%d/%d",
						w, dp.Nodes, dp.Solutions, dp.Merged, want.nodes, want.solutions, want.merged)
				}
			}
		})
	}
}

// TestRepeatDeterminismC2 runs the full flow twice on C2 with identical
// seeds and options (once single-threaded, once with the default worker
// pool) and requires all four runs to agree exactly.
func TestRepeatDeterminismC2(t *testing.T) {
	if testing.Short() {
		t.Skip("C2 is the largest design; skipped with -short")
	}
	tc := ASAP7()
	p, err := GenerateBenchmark("C2", 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*Metrics, 0, 4)
	for _, w := range []int{1, 1, 0, 8} {
		out, err := Synthesize(p.Root, p.Sinks, tc, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, out.Metrics)
	}
	for i := 1; i < len(runs); i++ {
		metricsIdentical(t, "C2 repeat", runs[0], runs[i])
	}
}

// TestWorkersDeterminismDSE checks that a concurrent DSE sweep returns the
// same points in the same order as a single-threaded one.
func TestWorkersDeterminismDSE(t *testing.T) {
	tc := ASAP7()
	p, err := GenerateBenchmark("C4", 1)
	if err != nil {
		t.Fatal(err)
	}
	ths := []int{50, 200, 800}
	run := func(workers int) []DSEPoint {
		pts, err := dse.SweepFanout(p.Root, p.Sinks, tc, ths, core.Options{Workers: workers})
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
		if a[i] != b[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
