// Command cismoke is the CI assertion checker: each subcommand verifies one
// smoke-test contract that the workflow used to express as an inline
// `python3 -c` block, so the pipeline runs on any Go-only runner. Input is
// a JSON document on stdin (the usual case, piped from `dscts -json`) or a
// file argument; any violated assertion prints a message and exits nonzero.
//
//	dscts -design C4 -json | cismoke synth -sinks 1056
//	dscts -design C3 -corners slow,typ,fast -json | cismoke corners
//	dscts -design C4 -partition 300 -json | cismoke partition -max-region 300
//	cismoke scale BENCH_scale.json
//	dscts -xl 500000 -partition 50000 -json | cismoke xl -sinks 500000
//	cismoke eco -design C3 -pct 1 -min-speedup 5 BENCH_eco.json
//	cismoke chaos BENCH_chaos.json
//	cismoke cluster BENCH_cluster.json
//	cismoke metrics BENCH_serve.json
//	cismoke metrics -min-families 25 BENCH_chaos.json
//	cismoke persist BENCH_persist.json
//	cismoke warm BENCH_chaos.json
//	cismoke allocs -max-regress 15 BENCH_parallel.json /tmp/BENCH_parallel_new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	sub, args := os.Args[1], os.Args[2:]
	var err error
	switch sub {
	case "allocs":
		err = cmdAllocs(args)
	case "synth":
		err = cmdSynth(args)
	case "corners":
		err = cmdCorners(args)
	case "partition":
		err = cmdPartition(args)
	case "scale":
		err = cmdScale(args)
	case "xl":
		err = cmdXL(args)
	case "eco":
		err = cmdECO(args)
	case "chaos":
		err = cmdChaos(args)
	case "cluster":
		err = cmdCluster(args)
	case "metrics":
		err = cmdMetrics(args)
	case "persist":
		err = cmdPersist(args)
	case "warm":
		err = cmdWarm(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cismoke %s: %v\n", sub, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cismoke {allocs|synth|corners|partition|scale|xl|eco|chaos|cluster|metrics|persist|warm} [flags] [file...]")
	os.Exit(2)
}

// decode reads the JSON input: the positional file argument if given
// (falling back to defaultPath when non-empty), stdin otherwise. Flags
// must precede the file — Go's flag parsing stops at the first positional
// operand, so anything after the path is rejected loudly here rather than
// silently ignored (a trailing `-min-speedup 99` that never gates is worse
// than an error).
func decode(fs *flag.FlagSet, defaultPath string, v any) error {
	if fs.NArg() > 1 {
		return fmt.Errorf("unexpected arguments %q: flags must come before the report file", fs.Args()[1:])
	}
	path := fs.Arg(0)
	if path == "" {
		path = defaultPath
	}
	var r io.Reader = os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("invalid JSON input: %w", err)
	}
	return nil
}

// dsctsReport mirrors the fields of `dscts -json` the smoke tests assert on.
type dsctsReport struct {
	Design    string  `json:"design"`
	Sinks     int     `json:"sinks"`
	Model     string  `json:"model"`
	LatencyPS float64 `json:"latency_ps"`
	SkewPS    float64 `json:"skew_ps"`
	Runtime   struct {
		Stitch float64 `json:"stitch"`
	} `json:"runtime_s"`
	Corners []struct {
		Name      string  `json:"name"`
		LatencyPS float64 `json:"latency_ps"`
		SkewPS    float64 `json:"skew_ps"`
	} `json:"corners"`
	Worst *struct {
		SkewPS        float64 `json:"skew_ps"`
		LatencyCorner string  `json:"latency_corner"`
	} `json:"worst"`
	Partition *struct {
		Regions        int `json:"regions"`
		MaxRegionSinks int `json:"max_region_sinks"`
	} `json:"partition"`
	ECO *struct {
		LatencyPS   float64 `json:"latency_ps"`
		SkewPS      float64 `json:"skew_ps"`
		DirtyScopes int     `json:"dirty_scopes"`
		TotalScopes int     `json:"total_scopes"`
	} `json:"eco"`
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	sinks := fs.Int("sinks", 0, "expected sink count (0 = don't check)")
	model := fs.String("model", "elmore", "expected delay model")
	wantECO := fs.Bool("eco", false, "require an eco section with sane values")
	fs.Parse(args)
	var r dsctsReport
	if err := decode(fs, "", &r); err != nil {
		return err
	}
	if r.LatencyPS <= 0 {
		return fmt.Errorf("latency_ps = %v, want > 0", r.LatencyPS)
	}
	if r.SkewPS < 0 {
		return fmt.Errorf("skew_ps = %v, want >= 0", r.SkewPS)
	}
	if *sinks > 0 && r.Sinks != *sinks {
		return fmt.Errorf("sinks = %d, want %d", r.Sinks, *sinks)
	}
	if *model != "" && r.Model != *model {
		return fmt.Errorf("model = %q, want %q", r.Model, *model)
	}
	if *wantECO {
		switch {
		case r.ECO == nil:
			return fmt.Errorf("no eco section in the report")
		case r.ECO.LatencyPS <= 0 || r.ECO.SkewPS < 0:
			return fmt.Errorf("eco metrics implausible: %+v", *r.ECO)
		case r.ECO.TotalScopes <= 0 || r.ECO.DirtyScopes > r.ECO.TotalScopes:
			return fmt.Errorf("eco dirty set implausible: %d/%d", r.ECO.DirtyScopes, r.ECO.TotalScopes)
		}
	}
	return nil
}

func cmdCorners(args []string) error {
	fs := flag.NewFlagSet("corners", flag.ExitOnError)
	names := fs.String("names", "slow,typ,fast", "expected corner names in order (comma-separated)")
	worstLatency := fs.String("worst-latency", "slow", "expected worst-latency corner")
	fs.Parse(args)
	var r dsctsReport
	if err := decode(fs, "", &r); err != nil {
		return err
	}
	want := splitCSV(*names)
	if len(r.Corners) != len(want) {
		return fmt.Errorf("%d corners, want %d", len(r.Corners), len(want))
	}
	maxSkew := 0.0
	for i, c := range r.Corners {
		if c.Name != want[i] {
			return fmt.Errorf("corner %d is %q, want %q", i, c.Name, want[i])
		}
		if c.LatencyPS <= 0 || c.SkewPS <= 0 {
			return fmt.Errorf("corner %q has implausible metrics: %+v", c.Name, c)
		}
		if c.SkewPS > maxSkew {
			maxSkew = c.SkewPS
		}
	}
	if r.Worst == nil {
		return fmt.Errorf("no worst summary")
	}
	if r.Worst.LatencyCorner != *worstLatency {
		return fmt.Errorf("worst latency corner %q, want %q", r.Worst.LatencyCorner, *worstLatency)
	}
	if r.Worst.SkewPS < maxSkew-1e-9 {
		return fmt.Errorf("worst skew %v below the per-corner max %v", r.Worst.SkewPS, maxSkew)
	}
	return nil
}

func cmdPartition(args []string) error {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	maxRegion := fs.Int("max-region", 0, "maximum sinks per region (0 = don't check)")
	minRegions := fs.Int("min-regions", 2, "minimum region count")
	fs.Parse(args)
	var r dsctsReport
	if err := decode(fs, "", &r); err != nil {
		return err
	}
	if r.Partition == nil {
		return fmt.Errorf("no partition section in the report")
	}
	if r.Partition.Regions < *minRegions {
		return fmt.Errorf("regions = %d, want >= %d", r.Partition.Regions, *minRegions)
	}
	if *maxRegion > 0 && r.Partition.MaxRegionSinks > *maxRegion {
		return fmt.Errorf("max_region_sinks = %d, want <= %d", r.Partition.MaxRegionSinks, *maxRegion)
	}
	if r.LatencyPS <= 0 || r.SkewPS <= 0 {
		return fmt.Errorf("implausible metrics: latency %v, skew %v", r.LatencyPS, r.SkewPS)
	}
	if r.Runtime.Stitch < 0 {
		return fmt.Errorf("stitch runtime %v < 0", r.Runtime.Stitch)
	}
	return nil
}

func cmdXL(args []string) error {
	fs := flag.NewFlagSet("xl", flag.ExitOnError)
	sinks := fs.Int("sinks", 500000, "expected sink count")
	minRegions := fs.Int("min-regions", 8, "minimum region count")
	fs.Parse(args)
	var r dsctsReport
	if err := decode(fs, "", &r); err != nil {
		return err
	}
	if r.Sinks != *sinks {
		return fmt.Errorf("sinks = %d, want %d", r.Sinks, *sinks)
	}
	if r.Partition == nil || r.Partition.Regions < *minRegions {
		return fmt.Errorf("partition section %+v, want >= %d regions", r.Partition, *minRegions)
	}
	if r.LatencyPS <= 0 || r.SkewPS <= 0 {
		return fmt.Errorf("implausible metrics: latency %v, skew %v", r.LatencyPS, r.SkewPS)
	}
	return nil
}

// scaleReport mirrors BENCH_scale.json.
type scaleReport struct {
	Workers           int `json:"workers"`
	PartitionMaxSinks int `json:"partition_max_sinks"`
	Sizes             []struct {
		Sinks              int     `json:"sinks"`
		Regions            int     `json:"regions"`
		MonoMS             float64 `json:"mono_ms"`
		Part1WMS           float64 `json:"part_1w_ms"`
		PartNWMS           float64 `json:"part_nw_ms"`
		PartCriticalPathMS float64 `json:"part_critical_path_ms"`
		LatencyPartPS      float64 `json:"latency_part_ps"`
		SkewPartPS         float64 `json:"skew_part_ps"`
		Validated          bool    `json:"validated"`
	} `json:"sizes"`
	LargestCommon *struct {
		Sinks            int     `json:"sinks"`
		Speedup          float64 `json:"speedup"`
		ProjectedSpeedup float64 `json:"projected_speedup"`
	} `json:"largest_common"`
}

func cmdScale(args []string) error {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	fs.Parse(args)
	var r scaleReport
	if err := decode(fs, "BENCH_scale.json", &r); err != nil {
		return err
	}
	if r.Workers < 1 || r.PartitionMaxSinks <= 0 {
		return fmt.Errorf("header implausible: workers %d, partition_max_sinks %d", r.Workers, r.PartitionMaxSinks)
	}
	if len(r.Sizes) < 2 {
		return fmt.Errorf("need a scaling curve, got %d sizes", len(r.Sizes))
	}
	maxMono := 0
	for _, pt := range r.Sizes {
		if pt.Sinks <= 0 || pt.Regions < 1 {
			return fmt.Errorf("size row implausible: %+v", pt)
		}
		if pt.Part1WMS <= 0 || pt.PartNWMS <= 0 || pt.PartCriticalPathMS <= 0 {
			return fmt.Errorf("size %d: missing partitioned timings", pt.Sinks)
		}
		if !pt.Validated {
			return fmt.Errorf("size %d: stitched tree not validated", pt.Sinks)
		}
		if pt.SkewPartPS <= 0 || pt.LatencyPartPS <= 0 {
			return fmt.Errorf("size %d: implausible metrics", pt.Sinks)
		}
		if pt.MonoMS > 0 && pt.Sinks > maxMono {
			maxMono = pt.Sinks
		}
	}
	lc := r.LargestCommon
	if lc == nil {
		return fmt.Errorf("no largest_common summary")
	}
	if lc.Sinks != maxMono {
		return fmt.Errorf("largest_common.sinks = %d, want %d (largest size with a mono run)", lc.Sinks, maxMono)
	}
	if lc.Speedup <= 0 || lc.ProjectedSpeedup <= 0 {
		return fmt.Errorf("largest_common speedups implausible: %+v", *lc)
	}
	return nil
}

// ecoBench mirrors BENCH_eco.json.
type ecoBench struct {
	Workers int `json:"workers"`
	Rows    []struct {
		Design      string  `json:"design"`
		Sinks       int     `json:"sinks"`
		Mode        string  `json:"mode"`
		DeltaPct    float64 `json:"delta_pct"`
		DirtyScopes int     `json:"dirty_scopes"`
		TotalScopes int     `json:"total_scopes"`
		FullMS      float64 `json:"full_ms"`
		ECOMS       float64 `json:"eco_ms"`
		Speedup     float64 `json:"speedup"`
	} `json:"rows"`
}

func cmdECO(args []string) error {
	fs := flag.NewFlagSet("eco", flag.ExitOnError)
	design := fs.String("design", "C3", "design whose speedup is gated")
	pct := fs.Float64("pct", 1, "delta size (percent) whose speedup is gated")
	minSpeedup := fs.Float64("min-speedup", 5, "required best speedup for the gated (design, pct) cell")
	fs.Parse(args)
	var r ecoBench
	if err := decode(fs, "BENCH_eco.json", &r); err != nil {
		return err
	}
	if r.Workers < 1 || len(r.Rows) == 0 {
		return fmt.Errorf("report empty: workers %d, %d rows", r.Workers, len(r.Rows))
	}
	best := 0.0
	found := false
	for _, row := range r.Rows {
		if row.Sinks <= 0 || row.FullMS <= 0 || row.ECOMS <= 0 || row.Speedup <= 0 {
			return fmt.Errorf("row implausible: %+v", row)
		}
		if row.DirtyScopes <= 0 || row.DirtyScopes > row.TotalScopes {
			return fmt.Errorf("row %s/%s %.3g%%: dirty set %d/%d implausible",
				row.Design, row.Mode, row.DeltaPct, row.DirtyScopes, row.TotalScopes)
		}
		if row.Design == *design && row.DeltaPct == *pct {
			found = true
			if row.Speedup > best {
				best = row.Speedup
			}
		}
	}
	if !found {
		return fmt.Errorf("no row for %s at %.3g%%", *design, *pct)
	}
	if best < *minSpeedup {
		return fmt.Errorf("best %s speedup at %.3g%% is %.2fx, want >= %.1fx", *design, *pct, best, *minSpeedup)
	}
	fmt.Printf("eco gate: %s at %.3g%% best speedup %.1fx (>= %.1fx)\n", *design, *pct, best, *minSpeedup)
	return nil
}

// chaosView mirrors the BENCH_chaos.json fields the fault-tolerance gate
// asserts on (benchgen -load -chaos).
type chaosView struct {
	FaultSpec  string  `json:"fault_spec"`
	DurationMS float64 `json:"duration_ms"`
	Ops        struct {
		Total          int64 `json:"total"`
		Done           int64 `json:"done"`
		InjectedErrors int64 `json:"injected_errors"`
		Timeouts       int64 `json:"timeouts"`
		Panics         int64 `json:"panics"`
		Unstructured   int64 `json:"unstructured"`
	} `json:"ops"`
	ErrorRate        float64 `json:"error_rate"`
	MaxErrorRate     float64 `json:"max_error_rate"`
	InjectedFaults   int64   `json:"injected_faults"`
	LeakedGoroutines int     `json:"leaked_goroutines"`
	Stats            struct {
		Jobs struct {
			Running          int64 `json:"running"`
			AbandonedWorkers int64 `json:"abandoned_workers"`
		} `json:"jobs"`
	} `json:"server_stats"`
}

// cmdChaos re-checks the chaos soak's contract from its report: the soak ran
// real traffic with real injections, every failure was structured, nothing
// leaked, and the error rate stayed within its declared bound. The soak
// binary asserts the same things before exiting zero; this gate keeps the
// committed/uploaded artifact honest independently of that exit code.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	minOps := fs.Int64("min-ops", 50, "minimum operations the soak must have issued (absolute floor; keep low — see -min-ops-per-sec)")
	minRate := fs.Float64("min-ops-per-sec", 0, "minimum throughput (ops / soak seconds) the soak must have sustained (0 = skip); duration-relative, so a longer soak on a slow runner does not flake the way an absolute -min-ops does")
	fs.Parse(args)
	var r chaosView
	if err := decode(fs, "BENCH_chaos.json", &r); err != nil {
		return err
	}
	if r.FaultSpec == "" || r.DurationMS <= 0 {
		return fmt.Errorf("header implausible: spec %q, duration %v ms", r.FaultSpec, r.DurationMS)
	}
	if r.Ops.Total < *minOps {
		return fmt.Errorf("only %d ops issued, want >= %d", r.Ops.Total, *minOps)
	}
	if *minRate > 0 {
		rate := float64(r.Ops.Total) / (r.DurationMS / 1000)
		if rate < *minRate {
			return fmt.Errorf("soak sustained %.2f ops/s over %.0fs, want >= %.2f ops/s", rate, r.DurationMS/1000, *minRate)
		}
	}
	if r.Ops.Done == 0 {
		return fmt.Errorf("no operation succeeded under chaos")
	}
	if r.Ops.Unstructured != 0 {
		return fmt.Errorf("%d unstructured failures (every failure must be a classified, structured response)", r.Ops.Unstructured)
	}
	if r.InjectedFaults == 0 {
		return fmt.Errorf("no faults fired: the soak did not actually inject anything")
	}
	if r.LeakedGoroutines != 0 {
		return fmt.Errorf("%d goroutines leaked past shutdown", r.LeakedGoroutines)
	}
	if r.Stats.Jobs.Running != 0 || r.Stats.Jobs.AbandonedWorkers != 0 {
		return fmt.Errorf("worker budget not reclaimed: %d running, %d abandoned after drain",
			r.Stats.Jobs.Running, r.Stats.Jobs.AbandonedWorkers)
	}
	if r.MaxErrorRate <= 0 || r.MaxErrorRate > 0.5 {
		return fmt.Errorf("declared max_error_rate %.3f implausible", r.MaxErrorRate)
	}
	if r.ErrorRate > r.MaxErrorRate {
		return fmt.Errorf("error rate %.3f exceeds the %.2f bound", r.ErrorRate, r.MaxErrorRate)
	}
	fmt.Printf("chaos gate: %d ops, %d injections (%d err/%d timeout/%d panic), error rate %.3f <= %.2f, zero leaks\n",
		r.Ops.Total, r.InjectedFaults, r.Ops.InjectedErrors, r.Ops.Timeouts, r.Ops.Panics,
		r.ErrorRate, r.MaxErrorRate)
	return nil
}

func splitCSV(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
