package core

import (
	"context"
	"errors"
	"testing"

	"dscts/internal/fault"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// stopSpec fails the first scope's insertion and counts, through a
// 1 ns delay that fires on every call, how many scopes began routing.
const stopSpec = "error@core.insert:once;delay@core.route:every=1:1ns"

func routeStarts(reg *fault.Registry) int64 {
	return reg.Counts()["delay@"+fault.PointRoute]
}

func stopRegistry(t *testing.T) *fault.Registry {
	t.Helper()
	reg, err := fault.Parse(stopSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestFanOutStopsStartingRegions: at one worker, a partitioned run whose
// first region fails starts no further region, and a run whose context is
// done before the call starts none.
func TestFanOutStopsStartingRegions(t *testing.T) {
	tc := tech.ASAP7()
	sinks := clusteredSinks(4000, 3, 600)
	opt := Options{Workers: 1, Partition: partition.Options{MaxSinks: 900}}
	regions, err := partition.Split(sinks, opt.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 8 {
		t.Fatalf("%d regions, want 8", len(regions))
	}

	opt.Faults = stopRegistry(t)
	_, err = Synthesize(geom.Pt(300, 300), sinks, tc, opt)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected insertion error", err)
	}
	if n := routeStarts(opt.Faults); n != 1 {
		t.Errorf("a failed first region: %d regions started routing, want 1", n)
	}

	opt.Faults = stopRegistry(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SynthesizeContext(ctx, geom.Pt(300, 300), sinks, tc, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := routeStarts(opt.Faults); n != 0 {
		t.Errorf("a done context: %d regions started routing, want 0", n)
	}
}

// TestFanOutStopsStartingECOClusters: at one worker, a monolithic ECO run
// whose first dirty leaf cluster fails starts no further cluster.
func TestFanOutStopsStartingECOClusters(t *testing.T) {
	p := ecoPlacement(t, "C4")
	prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), Options{RetainECO: true})
	if err != nil {
		t.Fatal(err)
	}
	d := localizedDelta(p.Sinks, 17, 40)
	clean, err := SynthesizeECO(prev, d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if clean.ECO.DirtyScopes < 2 {
		t.Fatalf("the delta dirties %d leaf clusters, want at least 2", clean.ECO.DirtyScopes)
	}

	reg := stopRegistry(t)
	_, err = SynthesizeECO(prev, d, Options{Workers: 1, Faults: reg})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected insertion error", err)
	}
	if n := routeStarts(reg); n != 1 {
		t.Errorf("%d of %d dirty clusters started routing, want 1", n, clean.ECO.DirtyScopes)
	}
}
