// Command cismoke is the CI assertion checker for output that no Go test
// reads: the `dscts -json` CLI report. Input is a JSON document on stdin
// (the usual case, piped from `dscts -json`) or a file argument; any
// violated assertion prints a message and exits nonzero. benchgen's
// contract runs assert their own reports before they exit, and `benchgen
// -compare` gates them against the committed baselines, so cismoke reads
// none of them.
//
//	dscts -design C4 -json | cismoke synth -sinks 1056
//	dscts -design C3 -corners slow,typ,fast -json | cismoke corners
//	dscts -design C4 -partition 300 -json | cismoke partition -max-region 300
//	dscts -xl 500000 -partition 50000 -json | cismoke xl -sinks 500000
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
	case "synth":
		err = cmdSynth(args)
	case "corners":
		err = cmdCorners(args)
	case "partition":
		err = cmdPartition(args)
	case "xl":
		err = cmdXL(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cismoke %s: %v\n", sub, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cismoke {synth|corners|partition|xl} [flags] [file...]")
	os.Exit(2)
}

// decode reads the JSON input: the positional file argument if given,
// stdin otherwise. Flags must precede the file — Go's flag parsing stops
// at the first positional operand, so anything after the path is rejected
// loudly here rather than silently ignored (a trailing `-sinks 99` that
// never gates is worse than an error).
func decode(fs *flag.FlagSet, v any) error {
	if fs.NArg() > 1 {
		return fmt.Errorf("unexpected arguments %q: flags must come before the report file", fs.Args()[1:])
	}
	path := fs.Arg(0)
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
	if err := decode(fs, &r); err != nil {
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
	if err := decode(fs, &r); err != nil {
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
	if err := decode(fs, &r); err != nil {
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
	if err := decode(fs, &r); err != nil {
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

func splitCSV(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
