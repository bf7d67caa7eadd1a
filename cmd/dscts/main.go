// Command dscts runs the double-side CTS flow on a DEF file (or a named
// Table II benchmark) and prints the resulting clock-tree metrics. With
// -json the metrics go to stdout as a single machine-readable JSON object
// (human chatter suppressed); every error path exits nonzero, so scripts
// and smoke tests can assert on both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/def"
	"dscts/internal/eco"
	"dscts/internal/export"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/power"
	"dscts/internal/tech"
	"dscts/internal/viz"
)

func main() {
	var (
		defPath   = flag.String("def", "", "input placed DEF file (with a clk pin/net)")
		design    = flag.String("design", "", "built-in benchmark to run (C1..C5 or name)")
		xlSinks   = flag.Int("xl", 0, "synthesize a generated mega-scale placement with this many sinks (use with -partition)")
		partMax   = flag.Int("partition", 0, "partition-parallel pipeline region capacity in sinks (0 = monolithic flow)")
		partStrat = flag.String("partition-strategy", "", "region cut strategy: kd (default) or grid")
		seed      = flag.Int64("seed", 1, "benchmark generation seed")
		single    = flag.Bool("single-side", false, "disable nTSVs (front-side-only CTS)")
		fanout    = flag.Int("fanout", 0, "fanout threshold for heterogeneous DP (0 = full mode)")
		skipSR    = flag.Bool("no-sr", false, "skip skew refinement")
		alpha     = flag.Float64("alpha", 1, "MOES latency weight")
		beta      = flag.Float64("beta", 10, "MOES buffer weight")
		gamma     = flag.Float64("gamma", 1, "MOES nTSV weight")
		svgOut    = flag.String("svg", "", "write an SVG rendering of the tree")
		defOut    = flag.String("export-def", "", "legalize cells and write the clock tree as DEF")
		showPower = flag.Bool("power", false, "print the clock power breakdown @1GHz/0.7V")
		workers   = flag.Int("workers", 0, "worker pool size for all phases (0 = all CPUs; results are identical for any value)")
		jsonOut   = flag.Bool("json", false, "emit machine-readable metrics JSON to stdout instead of the human report")
		cornerSet = flag.String("corners", "", "comma-separated PVT corners for multi-corner sign-off (slow,typ,fast)")
		cornersIn = flag.String("corners-file", "", "JSON file of custom corners for sign-off (overrides -corners)")
		ecoFrom   = flag.String("eco-from", "", "JSON delta file to apply as an incremental ECO after the base synthesis (see DESIGN.md §4)")
		ecoMove   = flag.String("move", "", "ECO sink moves, \"sink:x,y\" separated by ';' (e.g. \"7:100.5,200.25;9:1,2\")")
		ecoAdd    = flag.String("add", "", "ECO sink additions, \"x,y\" separated by ';'")
		ecoRemove = flag.String("remove", "", "comma-separated sink indices the ECO removes")
	)
	flag.Parse()
	tc := tech.ASAP7()

	var corners []corner.Corner
	switch {
	case *cornersIn != "":
		f, err := os.Open(*cornersIn)
		if err != nil {
			fatal(err)
		}
		corners, err = corner.LoadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *cornerSet != "":
		var err error
		if corners, err = corner.ParseList(*cornerSet); err != nil {
			fatal(err)
		}
	}

	var rootX, rootY float64
	var sinks int
	opt := core.Options{
		FanoutThreshold: *fanout,
		SkipRefine:      *skipSR,
		Alpha:           *alpha, Beta: *beta, Gamma: *gamma,
		Workers: *workers,
		Corners: corners,
	}
	if *single {
		opt.Mode = core.SingleSide
	}

	var p *bench.Placement
	switch {
	case *defPath != "":
		f, err := os.Open(*defPath)
		if err != nil {
			fatal(err)
		}
		parsed, err := def.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		p, err = bench.FromDEF(parsed)
		if err != nil {
			fatal(err)
		}
	case *design != "":
		d, err := bench.ByID(*design)
		if err != nil {
			fatal(err)
		}
		if p, err = bench.Generate(d, *seed); err != nil {
			fatal(err)
		}
	case *xlSinks > 0:
		var err error
		if p, err = bench.GenerateXL(*xlSinks, *seed); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: dscts -def file.def | -design C1..C5 | -xl N [flags]")
		os.Exit(2)
	}
	rootX, rootY, sinks = p.Root.X, p.Root.Y, len(p.Sinks)
	// The partition cut-line chooser avoids the placement's macro
	// blockages when they are known.
	opt.Partition = partition.Options{MaxSinks: *partMax, Strategy: *partStrat, Macros: p.Macros}

	delta, haveDelta, err := parseDelta(*ecoFrom, *ecoMove, *ecoAdd, *ecoRemove)
	if err != nil {
		fatal(err)
	}
	if haveDelta {
		if err := delta.Validate(sinks); err != nil {
			fatal(err)
		}
		opt.RetainECO = true
	}

	out, err := core.Synthesize(p.Root, p.Sinks, tc, opt)
	if err != nil {
		fatal(err)
	}
	var ecoOut *core.Outcome
	if haveDelta {
		if ecoOut, err = core.SynthesizeECO(out, delta, core.Options{Workers: *workers}); err != nil {
			fatal(err)
		}
	}
	m := out.Metrics
	var pw *power.Breakdown
	if *showPower {
		if pw, err = power.Estimate(out.Tree, tc, power.DefaultParams()); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		rep := jsonReport{
			Design: p.Design.Name, Sinks: sinks,
			Root:      xy{rootX, rootY},
			Model:     "elmore",
			LatencyPS: m.Latency, SkewPS: m.Skew,
			Buffers: m.Buffers, NTSVs: m.NTSVs, WLum: m.WL,
			RuntimeS: runtimes{
				Total: out.TotalTime.Seconds(), Route: seconds(out, core.PhaseRoute),
				Insert: seconds(out, core.PhaseInsert), Refine: seconds(out, core.PhaseRefine),
				Partition: seconds(out, core.PhasePartition), Stitch: seconds(out, core.PhaseStitch),
				Corners: seconds(out, core.PhaseCorners),
			},
			DP: dpStats{Nodes: out.DP.Nodes, Solutions: out.DP.Solutions},
		}
		if len(out.Regions) > 0 {
			ps := &partitionStats{Regions: len(out.Regions)}
			for _, r := range out.Regions {
				ps.MaxRegionSinks = max(ps.MaxRegionSinks, r.Sinks)
			}
			rep.Partition = ps
		}
		if out.Corners != nil {
			for _, res := range out.Corners.Results {
				rep.Corners = append(rep.Corners, cornerStats{
					Name:      res.Corner.Name,
					LatencyPS: res.Metrics.Latency,
					SkewPS:    res.Metrics.Skew,
				})
			}
			s := out.Corners.Summary
			rep.Worst = &worstStats{
				SkewPS: s.WorstSkew, SkewCorner: s.WorstSkewCorner,
				LatencyPS: s.WorstLatency, LatencyCorner: s.WorstLatencyCorner,
				LatencySpreadPS: s.LatencySpread, MaxDivergencePS: s.MaxDivergence,
			}
		}
		if out.Refine != nil {
			rep.Refine = &refineStats{
				Triggered: out.Refine.Triggered, Inserted: out.Refine.Inserted,
				SkewBeforePS: out.Refine.Before.Skew, SkewAfterPS: out.Refine.After.Skew,
			}
		}
		if pw != nil {
			rep.Power = &powerStats{TotalMW: pw.TotalMW, SwitchingMW: pw.SwitchingMW, InternalMW: pw.InternalMW}
		}
		if ecoOut != nil {
			em := ecoOut.Metrics
			rep.ECO = &ecoStats{
				LatencyPS: em.Latency, SkewPS: em.Skew,
				Buffers: em.Buffers, NTSVs: em.NTSVs, WLum: em.WL,
				Sinks:       len(em.SinkDelays),
				DirtyScopes: ecoOut.ECO.DirtyScopes, TotalScopes: ecoOut.ECO.TotalScopes,
				Partitioned: ecoOut.ECO.Partitioned,
				TotalS:      ecoOut.TotalTime.Seconds(),
			}
			if e := ecoOut.TotalTime.Seconds(); e > 0 {
				rep.ECO.SpeedupVsBase = out.TotalTime.Seconds() / e
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("design   %s (%d sinks, root %.1f,%.1f)\n", p.Design.Name, sinks, rootX, rootY)
		fmt.Printf("latency  %.3f ps\n", m.Latency)
		fmt.Printf("skew     %.3f ps\n", m.Skew)
		fmt.Printf("buffers  %d\n", m.Buffers)
		fmt.Printf("nTSVs    %d\n", m.NTSVs)
		fmt.Printf("clk WL   %.1f um (%.3f x1e6 nm)\n", m.WL, m.WL*1000/1e6)
		fmt.Printf("runtime  %.3fs (route %.3fs, insert %.3fs, refine %.3fs)\n",
			out.TotalTime.Seconds(), seconds(out, core.PhaseRoute), seconds(out, core.PhaseInsert), seconds(out, core.PhaseRefine))
		if len(out.Regions) > 0 {
			fmt.Printf("partition: %d regions (fan-out %.3fs, stitch %.3fs)\n",
				len(out.Regions), seconds(out, core.PhasePartition), seconds(out, core.PhaseStitch))
			for _, r := range out.Regions {
				fmt.Printf("  region %-3d %7d sinks  lat %8.2f ps  skew %7.2f ps  arrival %8.2f ps  %v\n",
					r.ID, r.Sinks, r.Latency, r.Skew, r.Arrival, r.Time.Round(time.Millisecond))
			}
		}
		if out.Refine != nil && out.Refine.Triggered {
			fmt.Printf("skew refinement: %d buffers, skew %.3f -> %.3f ps\n",
				out.Refine.Inserted, out.Refine.Before.Skew, out.Refine.After.Skew)
		}
		fmt.Printf("DP: %d nodes, %d candidate solutions\n", out.DP.Nodes, out.DP.Solutions)
		if out.Corners != nil {
			fmt.Printf("corner sign-off (%d corners, %.3fs):\n", len(out.Corners.Results), seconds(out, core.PhaseCorners))
			fmt.Printf("  %-10s %12s %10s\n", "corner", "latency(ps)", "skew(ps)")
			for _, res := range out.Corners.Results {
				fmt.Printf("  %-10s %12.3f %10.3f\n", res.Corner.Name, res.Metrics.Latency, res.Metrics.Skew)
			}
			s := out.Corners.Summary
			fmt.Printf("  worst skew %.3f ps (%s), worst latency %.3f ps (%s)\n",
				s.WorstSkew, s.WorstSkewCorner, s.WorstLatency, s.WorstLatencyCorner)
			fmt.Printf("  latency spread %.3f ps, max per-sink divergence %.3f ps\n",
				s.LatencySpread, s.MaxDivergence)
		}
		if pw != nil {
			fmt.Printf("power    %.3f mW @1GHz (switching %.3f, buffer internal %.3f)\n",
				pw.TotalMW, pw.SwitchingMW, pw.InternalMW)
		}
		if ecoOut != nil {
			em := ecoOut.Metrics
			fmt.Printf("eco: moved %d, added %d, removed %d -> %d sinks\n",
				len(delta.Move), len(delta.Add), len(delta.Remove), len(em.SinkDelays))
			fmt.Printf("eco: %d of %d scopes dirty, %.3fs vs base %.3fs (%.1fx)\n",
				ecoOut.ECO.DirtyScopes, ecoOut.ECO.TotalScopes,
				ecoOut.TotalTime.Seconds(), out.TotalTime.Seconds(),
				out.TotalTime.Seconds()/ecoOut.TotalTime.Seconds())
			fmt.Printf("eco latency %.3f ps, skew %.3f ps, buffers %d, nTSVs %d, WL %.1f um\n",
				em.Latency, em.Skew, em.Buffers, em.NTSVs, em.WL)
		}
	}
	// With an ECO delta, exports and renderings carry the post-ECO tree —
	// that is the placement the change order produced.
	finalTree := out.Tree
	if ecoOut != nil {
		finalTree = ecoOut.Tree
	}
	if *defOut != "" {
		f, err := os.Create(*defOut)
		if err != nil {
			fatal(err)
		}
		cells, err := export.WriteDEF(f, finalTree, p.Die, p.Macros, tc, export.Options{DesignName: p.Design.Name + "_clk"})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		note(*jsonOut, "exported %d legalized cells (max disp %.3f um) -> %s\n", len(cells.Cells), cells.MaxDisp, *defOut)
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		err = viz.WriteSVG(f, finalTree, p.Die, p.Macros, viz.Options{Title: p.Design.Name})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		note(*jsonOut, "rendering -> %s\n", *svgOut)
	}
}

// jsonReport is the -json output: everything the human report prints, as
// one stable machine-readable object on stdout.
type jsonReport struct {
	Design string `json:"design"`
	Sinks  int    `json:"sinks"`
	Root   xy     `json:"root"`
	// Model names the delay model behind the top-level metrics, so
	// machine consumers can distinguish future evaluation modes.
	Model     string        `json:"model"`
	LatencyPS float64       `json:"latency_ps"`
	SkewPS    float64       `json:"skew_ps"`
	Buffers   int           `json:"buffers"`
	NTSVs     int           `json:"ntsvs"`
	WLum      float64       `json:"wirelength_um"`
	RuntimeS  runtimes      `json:"runtime_s"`
	DP        dpStats       `json:"dp"`
	Refine    *refineStats  `json:"refine,omitempty"`
	Power     *powerStats   `json:"power,omitempty"`
	Corners   []cornerStats `json:"corners,omitempty"`
	Worst     *worstStats   `json:"worst,omitempty"`
	// Partition summarizes a partition-parallel run (absent for the
	// monolithic flow).
	Partition *partitionStats `json:"partition,omitempty"`
	// ECO summarizes the incremental re-synthesis when a delta was given
	// (-eco-from/-move/-add/-remove); the top-level metrics remain the
	// BASE run's.
	ECO *ecoStats `json:"eco,omitempty"`
}

// ecoStats is the -json summary of an incremental (ECO) run.
type ecoStats struct {
	LatencyPS     float64 `json:"latency_ps"`
	SkewPS        float64 `json:"skew_ps"`
	Buffers       int     `json:"buffers"`
	NTSVs         int     `json:"ntsvs"`
	WLum          float64 `json:"wirelength_um"`
	Sinks         int     `json:"sinks"`
	DirtyScopes   int     `json:"dirty_scopes"`
	TotalScopes   int     `json:"total_scopes"`
	Partitioned   bool    `json:"partitioned"`
	TotalS        float64 `json:"total_s"`
	SpeedupVsBase float64 `json:"speedup_vs_base,omitempty"`
}

// partitionStats is the -json summary of a partitioned run.
type partitionStats struct {
	Regions        int `json:"regions"`
	MaxRegionSinks int `json:"max_region_sinks"`
}

// cornerStats is one corner's row of the -corners sign-off output.
type cornerStats struct {
	Name      string  `json:"name"`
	LatencyPS float64 `json:"latency_ps"`
	SkewPS    float64 `json:"skew_ps"`
}

// worstStats is the cross-corner summary of the -corners output.
type worstStats struct {
	SkewPS          float64 `json:"skew_ps"`
	SkewCorner      string  `json:"skew_corner"`
	LatencyPS       float64 `json:"latency_ps"`
	LatencyCorner   string  `json:"latency_corner"`
	LatencySpreadPS float64 `json:"latency_spread_ps"`
	MaxDivergencePS float64 `json:"max_divergence_ps"`
}

type xy struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// seconds is the time o's timing record gives phase ph, in seconds (0 for
// a phase the run did not record).
func seconds(o *core.Outcome, ph core.Phase) float64 {
	for _, p := range o.Phases {
		if p.Phase == string(ph) {
			return p.MS / 1e3
		}
	}
	return 0
}

type runtimes struct {
	Total     float64 `json:"total"`
	Route     float64 `json:"route"`
	Insert    float64 `json:"insert"`
	Refine    float64 `json:"refine"`
	Partition float64 `json:"partition,omitempty"`
	Stitch    float64 `json:"stitch,omitempty"`
	Corners   float64 `json:"corners,omitempty"`
}

type dpStats struct {
	Nodes     int `json:"nodes"`
	Solutions int `json:"solutions"`
}

type refineStats struct {
	Triggered    bool    `json:"triggered"`
	Inserted     int     `json:"inserted"`
	SkewBeforePS float64 `json:"skew_before_ps"`
	SkewAfterPS  float64 `json:"skew_after_ps"`
}

type powerStats struct {
	TotalMW     float64 `json:"total_mw"`
	SwitchingMW float64 `json:"switching_mw"`
	InternalMW  float64 `json:"internal_mw"`
}

// note prints side-effect confirmations; under -json they go to stderr so
// stdout stays a single parseable object.
func note(jsonMode bool, format string, args ...any) {
	w := os.Stdout
	if jsonMode {
		w = os.Stderr
	}
	fmt.Fprintf(w, format, args...)
}

// parseDelta merges the ECO flags into one delta: the -eco-from file first,
// then the -move/-add/-remove shorthands appended.
func parseDelta(fromFile, moves, adds, removes string) (eco.Delta, bool, error) {
	var d eco.Delta
	have := false
	if fromFile != "" {
		f, err := os.Open(fromFile)
		if err != nil {
			return d, false, err
		}
		d, err = eco.LoadJSON(f)
		f.Close()
		if err != nil {
			return d, false, err
		}
		have = true
	}
	if moves != "" {
		for _, part := range strings.Split(moves, ";") {
			sink, pt, err := parseSinkPoint(part)
			if err != nil {
				return d, false, fmt.Errorf("-move %q: %w", part, err)
			}
			d.Move = append(d.Move, eco.Move{Sink: sink, To: pt})
		}
		have = true
	}
	if adds != "" {
		for _, part := range strings.Split(adds, ";") {
			pt, err := parsePoint(part)
			if err != nil {
				return d, false, fmt.Errorf("-add %q: %w", part, err)
			}
			d.Add = append(d.Add, pt)
		}
		have = true
	}
	if removes != "" {
		for _, part := range strings.Split(removes, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return d, false, fmt.Errorf("-remove %q: %w", part, err)
			}
			d.Remove = append(d.Remove, idx)
		}
		have = true
	}
	return d, have, nil
}

// parseSinkPoint parses "sink:x,y".
func parseSinkPoint(s string) (int, geom.Point, error) {
	idx, coords, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok {
		return 0, geom.Point{}, fmt.Errorf("want \"sink:x,y\"")
	}
	sink, err := strconv.Atoi(idx)
	if err != nil {
		return 0, geom.Point{}, err
	}
	pt, err := parsePoint(coords)
	return sink, pt, err
}

// parsePoint parses "x,y".
func parsePoint(s string) (geom.Point, error) {
	xs, ys, ok := strings.Cut(strings.TrimSpace(s), ",")
	if !ok {
		return geom.Point{}, fmt.Errorf("want \"x,y\"")
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(xs), 64)
	if err != nil {
		return geom.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(ys), 64)
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(x, y), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dscts:", err)
	os.Exit(1)
}
