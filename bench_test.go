package dscts

// Benchmarks regenerating the computational core of every table and figure
// in the paper's evaluation (Sec. IV), plus ablations for the design
// decisions called out in DESIGN.md §4. The printable tables/series come
// from cmd/experiments; these benches measure the same code paths and
// report the headline quality metrics alongside wall time.

import (
	"fmt"
	"runtime"
	"testing"

	"dscts/internal/baseline"
	"dscts/internal/bench"
	"dscts/internal/cluster"
	"dscts/internal/core"
	"dscts/internal/dme"
	"dscts/internal/dse"
	"dscts/internal/eval"
	"dscts/internal/insert"
	"dscts/internal/partition"
	"dscts/internal/refine"
	"dscts/internal/tech"
)

func mustPlacement(b *testing.B, id string) *bench.Placement {
	b.Helper()
	d, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Generate(d, 1)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTable1Tech covers Table I: technology construction+validation.
func BenchmarkTable1Tech(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tc := tech.ASAP7()
		if err := tc.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Benchgen covers Table II: synthesizing all five benchmark
// placements.
func BenchmarkTable2Benchgen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range bench.Suite() {
			p, err := bench.Generate(d, int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			if len(p.Sinks) != d.FFs {
				b.Fatal("sink count mismatch")
			}
		}
	}
}

// BenchmarkTable3 covers the Table III flows, one sub-benchmark per
// (design, flow) cell group.
func BenchmarkTable3(b *testing.B) {
	tc := tech.ASAP7()
	for _, id := range []string{"C1", "C2", "C3", "C4", "C5"} {
		p := mustPlacement(b, id)
		b.Run(id+"/openroad", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := baseline.OpenROADTree(p.Root, p.Sinks, tc, baseline.OpenROADOptions{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				reportTree(b, tc, tr)
			}
		})
		b.Run(id+"/openroad+veloso", func(b *testing.B) {
			tr0, err := baseline.OpenROADTree(p.Root, p.Sinks, tc, baseline.OpenROADOptions{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := tr0.Clone()
				if _, err := baseline.Veloso(tr); err != nil {
					b.Fatal(err)
				}
				reportTree(b, tc, tr)
			}
		})
		b.Run(id+"/ours", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, out.Metrics)
			}
		})
		b.Run(id+"/ours-single-side", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{Mode: core.SingleSide})
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, out.Metrics)
			}
		})
		b.Run(id+"/buffered+fanout100", func(b *testing.B) {
			buffered, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{Mode: core.SingleSide})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := buffered.Tree.Clone()
				if _, err := baseline.FanoutFlip(tr, 100); err != nil {
					b.Fatal(err)
				}
				reportTree(b, tc, tr)
			}
		})
		b.Run(id+"/buffered+critical0.5", func(b *testing.B) {
			buffered, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{Mode: core.SingleSide})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := buffered.Tree.Clone()
				if _, err := baseline.CriticalFlip(tr, tc, 0.5); err != nil {
					b.Fatal(err)
				}
				reportTree(b, tc, tr)
			}
		})
	}
}

// BenchmarkFig8AdaptiveT covers the adaptive scale factor of Fig. 8.
func BenchmarkFig8AdaptiveT(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for n := 0; n <= 20000; n += 100 {
			sum += refine.AdaptiveT(n)
		}
	}
	_ = sum
}

// BenchmarkFig10MOES covers the MOES study: C3 with the diverse root set
// retained, measuring the full DP including multi-objective selection.
func BenchmarkFig10MOES(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C3")
	for i := 0; i < b.N; i++ {
		out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{
			KeepRootSet: true, DiversePruning: true, SkipRefine: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.DP.Candidates) < 2 {
			b.Fatal("no root-set diversity")
		}
		b.ReportMetric(float64(len(out.DP.Candidates)), "root-candidates")
	}
}

// BenchmarkFig11SkewRefinement covers the skew-refinement pass in
// isolation: each design's DP output (the flow with refinement skipped),
// cloned and refined at the default parameters each iteration.
func BenchmarkFig11SkewRefinement(b *testing.B) {
	tc := tech.ASAP7()
	for _, d := range bench.Suite() {
		b.Run(d.ID, func(b *testing.B) {
			p := mustPlacement(b, d.ID)
			base, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{SkipRefine: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := base.Tree.Clone()
				rep, err := refine.Refine(tr, tc, refine.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Before.Skew-rep.After.Skew, "ps-skew-cut")
			}
		})
	}
}

// BenchmarkFig12DSE covers one DSE sweep slice on C4 (three thresholds per
// iteration; the full figure sweeps 99).
func BenchmarkFig12DSE(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C4")
	ths := []int{50, 200, 800}
	for i := 0; i < b.N; i++ {
		pts, err := dse.SweepFanout(p.Root, p.Sinks, tc, ths, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		front := dse.Pareto(pts, dse.Resources, dse.Latency)
		if len(front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// BenchmarkAblationDME compares hierarchical DME (the paper's) with
// matching-based flat DME on wirelength (Fig. 5 motivation).
func BenchmarkAblationDME(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C5")
	for _, mode := range []struct {
		name string
		flat bool
	}{{"hierarchical", false}, {"flat", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{
					UseFlatDME: mode.flat, SkipRefine: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Metrics.WL, "um-wirelength")
			}
		})
	}
}

// BenchmarkAblationPruning measures the DP with different per-side solution
// budgets and with diversity pruning on/off.
func BenchmarkAblationPruning(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C5")
	for _, cfg := range []struct {
		name    string
		max     int
		diverse bool
	}{
		{"keep8", 8, false},
		{"keep48", 48, false},
		{"keep128", 128, false},
		{"keep48-diverse", 48, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{
					SkipRefine: true, DiversePruning: cfg.diverse, MaxPerSide: cfg.max,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Metrics.Latency, "ps-latency")
			}
		})
	}
	// Direct DP-only comparison on a fixed routed tree.
	routed, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{SkipRefine: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, maxPerSide := range []int{8, 48, 128} {
		b.Run(fmt.Sprintf("dp-only/max%d", maxPerSide), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := routed.Tree.Clone()
				cfg := insert.DefaultConfig(tc)
				cfg.MaxPerSide = maxPerSide
				res, err := insert.Run(tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Chosen.Latency, "ps-latency")
			}
		})
	}
}

// BenchmarkAblationSegmentation sweeps the trunk-edge segmentation length.
func BenchmarkAblationSegmentation(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C5")
	for _, maxEdge := range []float64{20, 40, 80, 160} {
		b.Run(fmt.Sprintf("maxEdge%d", int(maxEdge)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{
					MaxTrunkEdge: maxEdge, SkipRefine: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Metrics.Latency, "ps-latency")
			}
		})
	}
}

// BenchmarkAblationMOESWeights sweeps the buffer weight β of Eq. (3).
func BenchmarkAblationMOESWeights(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C5")
	for _, beta := range []float64{1, 10, 100} {
		b.Run(fmt.Sprintf("beta%g", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{
					Alpha: 1, Beta: beta, Gamma: 1, SkipRefine: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Metrics.Latency, "ps-latency")
				b.ReportMetric(float64(out.Metrics.Buffers), "buffers")
			}
		})
	}
}

// BenchmarkSubstrates measures the individual pipeline stages on C3. The
// plain "clustering"/"insertion" variants run single-threaded (the
// algorithmic speed of the grid-accelerated k-means and allocation-lean
// DP); the "-parallel" variants add the worker pool at GOMAXPROCS, and
// "clustering-brute" keeps the pre-grid O(n·k) assignment scan as the
// reference point.
func BenchmarkSubstrates(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C3")
	front := tc.Front()
	dualOpt := cluster.DualOptions{
		HighSize: 3000, LowSize: 30, Seed: 1, MaxIter: 40, Workers: 1,
		CapOf:    func(s, c Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) },
		CapLimit: 0.6 * tc.Buf.MaxCap,
	}
	b.Run("clustering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DualLevel(p.Sinks, dualOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clustering-parallel", func(b *testing.B) {
		opt := dualOpt
		opt.Workers = runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DualLevel(p.Sinks, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clustering-brute", func(b *testing.B) {
		opt := dualOpt
		opt.Brute = true
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DualLevel(p.Sinks, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	d, err := cluster.DualLevel(p.Sinks, dualOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("routing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dme.HierarchicalRoute(p.Root, p.Sinks, d, tc, dme.HierOptions{MaxTrunkEdge: 40}); err != nil {
				b.Fatal(err)
			}
		}
	})
	routed, err := dme.HierarchicalRoute(p.Root, p.Sinks, d, tc, dme.HierOptions{MaxTrunkEdge: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("insertion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := routed.Clone()
			cfg := insert.DefaultConfig(tc)
			cfg.Workers = 1
			if _, err := insert.Run(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insertion-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := routed.Clone()
			cfg := insert.DefaultConfig(tc)
			cfg.Workers = runtime.GOMAXPROCS(0)
			if _, err := insert.Run(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	annotated := routed.Clone()
	if _, err := insert.Run(annotated, insert.DefaultConfig(tc)); err != nil {
		b.Fatal(err)
	}
	b.Run("evaluation", func(b *testing.B) {
		ev := eval.New(tc, eval.Elmore)
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(annotated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("evaluation-nldm", func(b *testing.B) {
		ev := eval.New(tc, eval.NLDM)
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(annotated); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The what-if build skew refinement and monolithic ECO pay for: one
	// lowering with slots plus the committed state's full pass.
	b.Run("whatif", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.ReleaseWhatIf(eval.NewWhatIf(annotated, tc))
		}
	})
}

// BenchmarkParallelSynthesize measures the end-to-end flow at one worker
// versus the full pool, per design. The Workers=1 column is the
// algorithmic baseline; on a multi-core machine the GOMAXPROCS column adds
// the parallel engine on top. Both produce identical Metrics (see
// TestWorkersDeterminism).
func BenchmarkParallelSynthesize(b *testing.B) {
	tc := tech.ASAP7()
	for _, id := range []string{"C3", "C5"} {
		p := mustPlacement(b, id)
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers%d", id, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					reportMetrics(b, out.Metrics)
				}
			})
		}
	}
}

func reportTree(b *testing.B, tc *tech.Tech, tr *Tree) {
	b.Helper()
	m, err := eval.New(tc, eval.Elmore).Evaluate(tr)
	if err != nil {
		b.Fatal(err)
	}
	reportMetrics(b, m)
}

func reportMetrics(b *testing.B, m *eval.Metrics) {
	b.Helper()
	b.ReportMetric(m.Latency, "ps-latency")
	b.ReportMetric(m.Skew, "ps-skew")
}

// BenchmarkPartitionSynthesize measures the partition-parallel pipeline
// against the monolithic flow on the largest built-in benchmark (C2), and
// the partitioned path alone on an XL placement. Run with -benchmem: the
// partition path's allocation profile is part of its performance contract
// (PERFORMANCE.md records the counters).
func BenchmarkPartitionSynthesize(b *testing.B) {
	tc := tech.ASAP7()
	p := mustPlacement(b, "C2")
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"C2/monolithic", core.Options{}},
		{"C2/partitioned", core.Options{Partition: partition.Options{MaxSinks: len(p.Sinks)/4 + 1, Macros: p.Macros}}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := core.Synthesize(p.Root, p.Sinks, tc, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, out.Metrics)
			}
		})
	}
	xl, err := bench.GenerateXL(100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("XL100k/partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := core.Synthesize(xl.Root, xl.Sinks, tc, core.Options{
				Partition: partition.Options{MaxSinks: 25_000, Macros: xl.Macros},
			})
			if err != nil {
				b.Fatal(err)
			}
			reportMetrics(b, out.Metrics)
		}
	})
}

// BenchmarkSplit measures partition.Split on the xl-partitioned
// workload's shape: a 250k-sink XL placement cut into 50k-sink regions,
// by the kd median cut around the placement's macros and by the grid
// strategy (which kd-splits only its overfull cells).
func BenchmarkSplit(b *testing.B) {
	p, err := bench.GenerateXL(250_000, 7919)
	if err != nil {
		b.Fatal(err)
	}
	for _, strategy := range []string{partition.StrategyKD, partition.StrategyGrid} {
		opt := partition.Options{MaxSinks: 50_000, Strategy: strategy, Macros: p.Macros}
		b.Run(strategy, func(b *testing.B) {
			b.ReportAllocs()
			var regions []partition.Region
			for i := 0; i < b.N; i++ {
				if regions, err = partition.Split(p.Sinks, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(regions)), "regions")
		})
	}
}

// BenchmarkCornerSignoff measures the slow/typ/fast sign-off of one
// finished 250k-sink partitioned tree (50k-sink kd regions) at one and
// two workers: tree validation, per-corner lowering and timing, the
// per-corner delay maps and the cross-corner summary.
func BenchmarkCornerSignoff(b *testing.B) {
	tc := tech.ASAP7()
	p, err := bench.GenerateXL(250_000, 7919)
	if err != nil {
		b.Fatal(err)
	}
	out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{
		Workers:   2,
		Partition: partition.Options{MaxSinks: 50_000, Macros: p.Macros},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EvaluateCorners(out.Tree, tc, SignoffCorners(), w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Tree.Len()), "nodes")
		})
	}
}
