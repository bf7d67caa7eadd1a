package main

import (
	"testing"

	"dscts/internal/bench"
	"dscts/internal/cluster"
	"dscts/internal/core"
	"dscts/internal/dme"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/tech"
)

// stageResult is one row of the BENCH_parallel.json report: the stage's
// steady-state allocation cost per run, on scratch the package pools
// recycled from its earlier iterations.
type stageResult struct {
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// benchReport is BENCH_parallel.json: the allocation baseline that
// `benchgen -compare` gates fresh runs against. Go's allocation accounting is
// machine-transferable at a fixed GOMAXPROCS, unlike wall-clock time.
type benchReport struct {
	header
	Stages map[string]stageResult `json:"stages"`
}

func measure(fn func(b *testing.B)) stageResult {
	r := testing.Benchmark(fn)
	return stageResult{BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()}
}

// runBench measures the one-worker engine stages — clustering and DP
// insertion on C3, end-to-end synthesis on C3 and C5 — and writes their
// allocation cost.
func runBench(path string) error {
	tc := tech.ASAP7()
	placement := func(id string) (*bench.Placement, error) {
		d, err := bench.ByID(id)
		if err != nil {
			return nil, err
		}
		return bench.Generate(d, 1)
	}
	p3, err := placement("C3")
	if err != nil {
		return err
	}
	p5, err := placement("C5")
	if err != nil {
		return err
	}

	front := tc.Front()
	dualOpt := cluster.DualOptions{
		HighSize: 3000, LowSize: 30, Seed: 1, MaxIter: 40, Workers: 1,
		CapOf:    func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) },
		CapLimit: 0.6 * tc.Buf.MaxCap,
	}
	stages := map[string]stageResult{}
	stages["clustering-C3-grid-workers1"] = measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DualLevel(p3.Sinks, dualOpt); err != nil {
				b.Fatal(err)
			}
		}
	})

	dual, err := cluster.DualLevel(p3.Sinks, dualOpt)
	if err != nil {
		return err
	}
	routed, err := dme.HierarchicalRoute(p3.Root, p3.Sinks, dual, tc, dme.HierOptions{MaxTrunkEdge: 40})
	if err != nil {
		return err
	}
	stages["insertion-C3-workers1"] = measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := insert.DefaultConfig(tc)
			cfg.Workers = 1
			if _, err := insert.Run(routed.Clone(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	synthBench := func(p *bench.Placement) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	stages["synthesize-C3-workers1"] = measure(synthBench(p3))
	stages["synthesize-C5-workers1"] = measure(synthBench(p5))

	return writeReport(path, "allocation", &benchReport{header: hostHeader(), Stages: stages}, nil)
}
