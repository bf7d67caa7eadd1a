package dscts

// Golden-metrics regression suite: the single-corner (typical) Metrics of
// every built-in benchmark are pinned in testdata/golden/*.json so a
// refactor that silently drifts results — a reordered reduction, a changed
// default, an "equivalent" algorithm swap — fails here instead of shipping.
// Two partitioned runs are pinned the same way, plus their region count:
// C4 in 300-sink regions and a 100k-sink XL placement in 10k-sink regions.
//
// The engine is deterministic (TestWorkersDeterminism), so the pins use a
// tight relative tolerance rather than exact equality only to absorb
// cross-architecture floating-point differences (e.g. FMA contraction).
// Intentional result changes re-pin with:
//
//	go test -run TestGoldenMetrics -update .

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden snapshots from the current engine")

// goldenMetrics is one design's pinned numbers. Floats carry a relative
// tolerance; counts are exact.
type goldenMetrics struct {
	Design    string  `json:"design"`
	Sinks     int     `json:"sinks"`
	LatencyPS float64 `json:"latency_ps"`
	SkewPS    float64 `json:"skew_ps"`
	WLum      float64 `json:"wirelength_um"`
	Buffers   int     `json:"buffers"`
	NTSVs     int     `json:"ntsvs"`
	PowerMW   float64 `json:"power_total_mw"`
	// Regions is the region count of a partitioned run (0: monolithic).
	Regions int `json:"regions,omitempty"`
}

// goldenRelTol is the relative tolerance for pinned floats: far below any
// real regression (which moves results by percents), far above any
// cross-platform FP noise (ulps).
const goldenRelTol = 1e-6

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// synthesizeGolden runs p through the engine with opt and summarizes the
// outcome as a snapshot named id.
func synthesizeGolden(t *testing.T, id string, p *Placement, opt Options) goldenMetrics {
	t.Helper()
	tc := ASAP7()
	out, err := Synthesize(p.Root, p.Sinks, tc, opt)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := EstimatePower(out.Tree, tc, DefaultPowerParams())
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	return goldenMetrics{
		Design: id, Sinks: len(p.Sinks),
		LatencyPS: m.Latency, SkewPS: m.Skew, WLum: m.WL,
		Buffers: m.Buffers, NTSVs: m.NTSVs,
		PowerMW: pw.TotalMW, Regions: len(out.Regions),
	}
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= goldenRelTol*scale
}

func TestGoldenMetrics(t *testing.T) {
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
			checkGolden(t, synthesizeGolden(t, id, p, Options{}))
		})
	}
}

// TestGoldenMetricsPartitioned pins the partitioned flow: the kd split, each
// region's clustering→DME→insertion→refinement stack, and the stitch.
func TestGoldenMetricsPartitioned(t *testing.T) {
	cases := []struct {
		id       string
		gen      func() (*Placement, error)
		maxSinks int
		large    bool
	}{
		{"C4-p300", func() (*Placement, error) { return GenerateBenchmark("C4", 1) }, 300, false},
		{"XL100k-p10000", func() (*Placement, error) { return GenerateXLBenchmark(100000, 1) }, 10000, true},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			if testing.Short() && c.large {
				t.Skip("large placement skipped with -short")
			}
			p, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Partition: PartitionOptions{MaxSinks: c.maxSinks, Macros: p.Macros}}
			got := synthesizeGolden(t, c.id, p, opt)
			if got.Regions < 2 {
				t.Fatalf("expected a partitioned run, got %d regions", got.Regions)
			}
			checkGolden(t, got)
		})
	}
}

// checkGolden compares got with its snapshot, or rewrites the snapshot
// under -update.
func checkGolden(t *testing.T, got goldenMetrics) {
	t.Helper()
	path := goldenPath(got.Design)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update to create): %v", err)
	}
	var want goldenMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v", path, err)
	}
	var diffs []string
	intEq := func(name string, g, w int) {
		if g != w {
			diffs = append(diffs, fmt.Sprintf("%s: got %d, pinned %d", name, g, w))
		}
	}
	fltEq := func(name string, g, w float64) {
		if !relClose(g, w) {
			diffs = append(diffs, fmt.Sprintf("%s: got %.9g, pinned %.9g (rel %.2g)",
				name, g, w, math.Abs(g-w)/math.Max(math.Abs(g), math.Abs(w))))
		}
	}
	intEq("sinks", got.Sinks, want.Sinks)
	intEq("regions", got.Regions, want.Regions)
	intEq("buffers", got.Buffers, want.Buffers)
	intEq("ntsvs", got.NTSVs, want.NTSVs)
	fltEq("latency_ps", got.LatencyPS, want.LatencyPS)
	fltEq("skew_ps", got.SkewPS, want.SkewPS)
	fltEq("wirelength_um", got.WLum, want.WLum)
	fltEq("power_total_mw", got.PowerMW, want.PowerMW)
	if len(diffs) > 0 {
		t.Errorf("%s drifted from golden snapshot %s:\n  %s\n(re-pin deliberate changes with: go test -run TestGoldenMetrics -update .)",
			got.Design, path, diffs[0])
		for _, d := range diffs[1:] {
			t.Errorf("  %s", d)
		}
	}
}
