package corner_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// refSummarize is the cross-corner summary as it was computed before the
// sign-off kept dense per-sink lanes: MaxDivergence walks the first
// corner's delay map and looks every sink up in the others.
func refSummarize(results []corner.Result) corner.Summary {
	s := corner.Summary{WorstSkew: math.Inf(-1), WorstLatency: math.Inf(-1)}
	minLat := math.Inf(1)
	for _, r := range results {
		if r.Metrics.Skew > s.WorstSkew {
			s.WorstSkew = r.Metrics.Skew
			s.WorstSkewCorner = r.Corner.Name
		}
		if r.Metrics.Latency > s.WorstLatency {
			s.WorstLatency = r.Metrics.Latency
			s.WorstLatencyCorner = r.Corner.Name
		}
		minLat = math.Min(minLat, r.Metrics.Latency)
	}
	s.LatencySpread = s.WorstLatency - minLat
	for sink, d0 := range results[0].Metrics.SinkDelays {
		lo, hi := d0, d0
		for _, r := range results[1:] {
			d := r.Metrics.SinkDelays[sink]
			lo = math.Min(lo, d)
			hi = math.Max(hi, d)
		}
		s.MaxDivergence = math.Max(s.MaxDivergence, hi-lo)
	}
	return s
}

// metricsEqual requires got == want field for field, every sink delay
// included.
func metricsEqual(t *testing.T, label string, got, want *eval.Metrics) {
	t.Helper()
	if got.Latency != want.Latency || got.Skew != want.Skew || got.Buffers != want.Buffers ||
		got.NTSVs != want.NTSVs || got.WL != want.WL || got.MaxSlew != want.MaxSlew {
		t.Fatalf("%s: metrics %+v, reference %+v", label, *got, *want)
	}
	if len(got.SinkDelays) != len(want.SinkDelays) {
		t.Fatalf("%s: %d sink delays, reference %d", label, len(got.SinkDelays), len(want.SinkDelays))
	}
	for sink, d := range want.SinkDelays {
		if g, ok := got.SinkDelays[sink]; !ok || g != d {
			t.Fatalf("%s: sink %d delay %v, reference %v", label, sink, g, d)
		}
	}
}

// TestEvaluateMatchesPerCornerReference holds the one-validation sign-off
// to what it replaced: every corner's Metrics equal an independent
// eval.New(c.Apply(tc), mode).Evaluate(tree), and the Summary equals the
// map-based reference, on C1..C5 and a partitioned tree, in both delay
// models and at 1 and 8 workers.
func TestEvaluateMatchesPerCornerReference(t *testing.T) {
	tc := tech.ASAP7()
	type named struct {
		name string
		tree *ctree.Tree
	}
	var trees []named
	for _, id := range []string{"C1", "C2", "C3", "C4", "C5"} {
		d, err := bench.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bench.Generate(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{}
		if id == "C2" {
			trees = append(trees, named{id, synth(t, p, tc, opt)})
			opt.Partition = partition.Options{MaxSinks: 4000, Macros: p.Macros}
			id += "-partitioned"
		}
		trees = append(trees, named{id, synth(t, p, tc, opt)})
	}
	sets := [][]corner.Corner{
		append(corner.Presets(), corner.Interpolate(corner.Slow(), corner.Fast(), 0.3, "mid")),
		{corner.Fast()},
	}
	for _, tr := range trees {
		for _, mode := range []eval.Mode{eval.Elmore, eval.NLDM} {
			for _, cs := range sets {
				want := make([]*eval.Metrics, len(cs))
				for i, c := range cs {
					m, err := eval.New(c.Apply(tc), mode).Evaluate(tr.tree)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = m
				}
				for _, workers := range []int{1, 8} {
					rep, err := corner.Evaluate(context.Background(), tr.tree, tc, cs, corner.Options{Mode: mode, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for i, c := range cs {
						label := fmt.Sprintf("%s mode %d workers %d corner %s", tr.name, mode, workers, c.Name)
						if rep.Results[i].Corner.Name != c.Name {
							t.Fatalf("%s: result %d is corner %s", label, i, rep.Results[i].Corner.Name)
						}
						metricsEqual(t, label, rep.Results[i].Metrics, want[i])
					}
					if ref := refSummarize(rep.Results); rep.Summary != ref {
						t.Fatalf("%s mode %d workers %d: summary %+v, reference %+v", tr.name, mode, workers, rep.Summary, ref)
					}
				}
			}
		}
	}
}

func synth(t *testing.T, p *bench.Placement, tc *tech.Tech, opt core.Options) *ctree.Tree {
	t.Helper()
	out, err := core.Synthesize(p.Root, p.Sinks, tc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out.Tree
}
