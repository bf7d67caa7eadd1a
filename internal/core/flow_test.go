package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// c4 synthesizes the smallest Table II design for end-to-end tests.
func c4Placement(t *testing.T) *bench.Placement {
	t.Helper()
	d, err := bench.ByID("C4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Generate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSynthesizeDoubleSideEndToEnd(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	out, err := Synthesize(p.Root, p.Sinks, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m.Latency <= 0 || m.Skew < 0 || m.Buffers <= 0 {
		t.Fatalf("implausible metrics: %+v", m)
	}
	if m.NTSVs == 0 {
		t.Fatal("double-side flow should insert nTSVs")
	}
	if len(m.SinkDelays) != len(p.Sinks) {
		t.Fatalf("%d sink delays for %d sinks", len(m.SinkDelays), len(p.Sinks))
	}
	if len(out.Phases) == 0 || out.TotalTime <= 0 {
		t.Error("phase runtimes not recorded")
	}
	for _, p := range out.Phases {
		if p.MS <= 0 {
			t.Errorf("phase %s took %g ms", p.Phase, p.MS)
		}
	}
}

func TestSynthesizeSingleSideHasNoTSVs(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	out, err := Synthesize(p.Root, p.Sinks, tc, Options{Mode: SingleSide})
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.NTSVs != 0 {
		t.Fatalf("single-side flow used %d nTSVs", out.Metrics.NTSVs)
	}
}

// Table III's central claim at benchmark scale: double-side latency beats
// single-side latency on the same placement.
func TestDoubleSideBeatsSingleSide(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	ds, err := Synthesize(p.Root, p.Sinks, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Synthesize(p.Root, p.Sinks, tc, Options{Mode: SingleSide})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Metrics.Latency >= ss.Metrics.Latency {
		t.Fatalf("double-side %.1f ps not better than single-side %.1f ps",
			ds.Metrics.Latency, ss.Metrics.Latency)
	}
	t.Logf("double %.1f ps (%d buf, %d tsv) vs single %.1f ps (%d buf)",
		ds.Metrics.Latency, ds.Metrics.Buffers, ds.Metrics.NTSVs,
		ss.Metrics.Latency, ss.Metrics.Buffers)
}

func TestSynthesizeFanoutThresholdRestrictsTSVs(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	free, err := Synthesize(p.Root, p.Sinks, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Synthesize(p.Root, p.Sinks, tc, Options{FanoutThreshold: 500})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 500 grants full mode only to the top trunk (C4 has 1056
	// sinks): strictly fewer nTSVs than the unconstrained flow.
	if tight.Metrics.NTSVs >= free.Metrics.NTSVs {
		t.Fatalf("threshold 500 gave %d nTSVs vs %d unconstrained",
			tight.Metrics.NTSVs, free.Metrics.NTSVs)
	}
	if tight.Metrics.NTSVs == 0 {
		t.Fatal("top trunk should still use nTSVs")
	}
}

func TestSynthesizeSkipRefine(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	out, err := Synthesize(p.Root, p.Sinks, tc, Options{SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Refine != nil {
		t.Fatal("refine report present despite SkipRefine")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	if _, err := Synthesize(p.Root, nil, tc, Options{}); err == nil {
		t.Error("no sinks should error")
	}
	if _, err := Synthesize(p.Root, p.Sinks, nil, Options{}); err == nil {
		t.Error("nil tech should error")
	}
	bad := *tc
	bad.MaxFanout = 0
	if _, err := Synthesize(p.Root, p.Sinks, &bad, Options{}); err == nil {
		t.Error("invalid tech should error")
	}
}

// TestSynthesizeRejectsNonFinite: a NaN or infinite root or sink position
// is refused up front, naming the bad input, on both the monolithic and
// the partitioned path, before any phase starts.
func TestSynthesizeRejectsNonFinite(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, part := range []partition.Options{{}, {MaxSinks: 300}} {
			var events int
			opt := Options{Partition: part, Progress: func(Progress) { events++ }}
			sinks := append([]geom.Point(nil), p.Sinks...)
			sinks[7].X = bad
			if _, err := Synthesize(p.Root, sinks, tc, opt); err == nil || !strings.Contains(err.Error(), "sink 7 ") {
				t.Errorf("sink X %v, partition %d: err %v", bad, part.MaxSinks, err)
			}
			sinks[7] = p.Sinks[7]
			sinks[11].Y = bad
			if _, err := Synthesize(p.Root, sinks, tc, opt); err == nil || !strings.Contains(err.Error(), "sink 11 ") {
				t.Errorf("sink Y %v, partition %d: err %v", bad, part.MaxSinks, err)
			}
			for _, root := range []geom.Point{geom.Pt(bad, p.Root.Y), geom.Pt(p.Root.X, bad)} {
				if _, err := Synthesize(root, p.Sinks, tc, opt); err == nil || !strings.Contains(err.Error(), "clock root") {
					t.Errorf("root %v, partition %d: err %v", root, part.MaxSinks, err)
				}
			}
			if events != 0 {
				t.Errorf("partition %d: %d progress events before the rejection", part.MaxSinks, events)
			}
		}
	}
}

func TestSynthesizeFlatDMEAblation(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	out, err := Synthesize(p.Root, p.Sinks, tc, Options{UseFlatDME: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.Latency <= 0 {
		t.Fatal("flat DME flow failed")
	}
}

// TestSynthesizeContextCancel cancels at every phase boundary (driven by
// the progress callback) and checks the flow stops with a wrapped
// context.Canceled instead of returning a partial Outcome.
func TestSynthesizeContextCancel(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	// Pre-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SynthesizeContext(ctx, p.Root, p.Sinks, tc, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v", err)
	}
	// Cancel as each phase starts; later phases must never run.
	for _, stopAt := range []Phase{PhaseRoute, PhaseInsert, PhaseRefine} {
		ctx, cancel := context.WithCancel(context.Background())
		var after []Phase
		opt := Options{Progress: func(pr Progress) {
			if pr.Phase == stopAt && !pr.Done {
				cancel()
			}
			if pr.Done {
				after = append(after, pr.Phase)
			}
		}}
		out, err := SynthesizeContext(ctx, p.Root, p.Sinks, tc, opt)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %s: err = %v", stopAt, err)
		}
		if out != nil {
			t.Fatalf("cancel at %s: got a partial outcome", stopAt)
		}
		for _, ph := range after {
			if ph == PhaseEval {
				t.Fatalf("cancel at %s: evaluation still ran", stopAt)
			}
		}
	}
}

// TestProgressEvents checks the phase event sequence of a full run: each
// phase emits start then done, in flow order, ending with evaluation.
func TestProgressEvents(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	type ev struct {
		ph   Phase
		done bool
	}
	var got []ev
	_, err := Synthesize(p.Root, p.Sinks, tc, Options{Progress: func(pr Progress) {
		got = append(got, ev{pr.Phase, pr.Done})
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []ev{
		{PhaseRoute, false}, {PhaseRoute, true},
		{PhaseInsert, false}, {PhaseInsert, true},
		{PhaseRefine, false}, {PhaseRefine, true},
		{PhaseEval, false}, {PhaseEval, true},
	}
	if len(got) != len(want) {
		t.Fatalf("events %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSynthesizeKeepRootSet(t *testing.T) {
	tc := tech.ASAP7()
	p := c4Placement(t)
	out, err := Synthesize(p.Root, p.Sinks, tc, Options{KeepRootSet: true, SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.DP.Candidates) < 2 {
		t.Fatalf("expected a diverse root set, got %d candidates", len(out.DP.Candidates))
	}
}
