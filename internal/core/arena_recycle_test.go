package core

// Determinism tests for scratch recycling (DESIGN.md §8): every phase draws
// its scratch from one package pool shared by all jobs, sizes and concurrent
// regions, so a run on scratch another job warmed must be bit-identical to
// the same run on cold scratch. Run under -race in CI, these also prove the
// pooled scratch is properly confined.

import (
	"reflect"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/tech"
)

// sameOutcome pins the result identity that scratch recycling must preserve:
// the full node array of the tree and every metric, exactly.
func sameOutcome(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Tree.Nodes, b.Tree.Nodes) {
		t.Errorf("%s: trees differ", label)
	}
	if a.Metrics.Latency != b.Metrics.Latency || a.Metrics.Skew != b.Metrics.Skew ||
		a.Metrics.WL != b.Metrics.WL || a.Metrics.Buffers != b.Metrics.Buffers ||
		a.Metrics.NTSVs != b.Metrics.NTSVs {
		t.Errorf("%s: metrics differ: %+v vs %+v", label, a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.Metrics.SinkDelays, b.Metrics.SinkDelays) {
		t.Errorf("%s: sink delays differ", label)
	}
}

// TestPackagePoolsAcrossSizes runs jobs of very different sizes and shapes
// in one process, so each phase's package pool hands scratch warmed by one
// job to the next: C1 (the reference), partitioned C4 (concurrent regions),
// C5, then C1 twice. Both later C1 runs must equal the reference exactly.
// C1 never triggers skew refinement while C4's regions do, so a closing
// partitioned C4 run, checked against the first, covers the refinement
// pools too.
func TestPackagePoolsAcrossSizes(t *testing.T) {
	tc := tech.ASAP7()
	run := func(p *bench.Placement, opt Options) *Outcome {
		t.Helper()
		out, err := Synthesize(p.Root, p.Sinks, tc, opt)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	c1, c4 := ecoPlacement(t, "C1"), ecoPlacement(t, "C4")
	part := Options{}
	part.Partition.MaxSinks = 300
	ref := run(c1, Options{})
	refPart := run(c4, part)
	if len(refPart.Regions) < 2 {
		t.Fatalf("expected a partitioned C4 run, got %d regions", len(refPart.Regions))
	}
	run(ecoPlacement(t, "C5"), Options{})
	sameOutcome(t, "C1 after partitioned C4 and C5", run(c1, Options{}), ref)
	sameOutcome(t, "C1 run again", run(c1, Options{}), ref)
	sameOutcome(t, "partitioned C4 after C5 and C1", run(c4, part), refPart)
}

// TestPartitionedRegionPoolBitIdentical runs the partitioned pipeline twice
// in a row: the second run's regions draw warm jobs from the shared region
// pool the first run populated, and must be bit-identical to the first.
func TestPartitionedRegionPoolBitIdentical(t *testing.T) {
	tc := tech.ASAP7()
	p := ecoPlacement(t, "C4")
	opt := Options{}
	opt.Partition.MaxSinks = 300

	cold, err := Synthesize(p.Root, p.Sinks, tc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Regions) < 2 {
		t.Fatalf("expected a partitioned run, got %d regions", len(cold.Regions))
	}
	warmRun, err := Synthesize(p.Root, p.Sinks, tc, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "warm region pool vs cold", warmRun, cold)
}
