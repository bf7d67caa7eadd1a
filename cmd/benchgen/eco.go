package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/eco"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// ecoReport is the BENCH_eco.json payload: full-vs-incremental re-synthesis
// runtime across delta sizes, per design and pipeline mode.
type ecoReport struct {
	header
	Workers int   `json:"workers"`
	Seed    int64 `json:"seed"`
	// Reps is the measurement repetition count; every reported time is the
	// fastest of Reps runs.
	Reps              int      `json:"reps"`
	PartitionMaxSinks int      `json:"partition_max_sinks"`
	XLPartitionSinks  int      `json:"xl_partition_sinks,omitempty"`
	Rows              []ecoRow `json:"rows"`
}

// The measured grid. One worker, because the bench gate compares same-run
// speedup ratios against BENCH_eco.json, and those ratios are not
// worker-count invariant (the full run parallelizes, a one-cluster ECO
// barely does).
const (
	ecoWorkers     = 1
	ecoReps        = 3
	ecoPartition   = 2000  // region capacity of the partitioned C-series rows
	ecoXLPartition = 50000 // region capacity of the XL rows
)

// ecoPcts are the delta sizes, in percent of the sink count.
var ecoPcts = []float64{0.1, 1, 10}

// ecoContract checks that every row is plausible and that, when the run
// includes C3 at a 1% delta, its best speedup is at least 5x.
func ecoContract(r *ecoReport) []string {
	v := []string{}
	if r.Workers < 1 || len(r.Rows) == 0 {
		v = append(v, fmt.Sprintf("report empty: workers %d, %d rows", r.Workers, len(r.Rows)))
	}
	best, gated := 0.0, false
	for _, row := range r.Rows {
		if row.Sinks <= 0 || row.FullMS <= 0 || row.ECOMS <= 0 || row.Speedup <= 0 {
			v = append(v, fmt.Sprintf("row %s/%s %.3g%% implausible: %d sinks, full %v ms, eco %v ms, speedup %v",
				row.Design, row.Mode, row.DeltaPct, row.Sinks, row.FullMS, row.ECOMS, row.Speedup))
		}
		if row.DirtyScopes <= 0 || row.DirtyScopes > row.TotalScopes {
			v = append(v, fmt.Sprintf("row %s/%s %.3g%%: dirty set %d/%d implausible",
				row.Design, row.Mode, row.DeltaPct, row.DirtyScopes, row.TotalScopes))
		}
		if row.Design == "C3" && row.DeltaPct == 1 {
			gated = true
			best = max(best, row.Speedup)
		}
	}
	if gated && best < 5 {
		v = append(v, fmt.Sprintf("best C3 speedup at 1%% is %.2fx, want >= 5x", best))
	}
	return v
}

type ecoRow struct {
	Design string `json:"design"`
	Sinks  int    `json:"sinks"`
	// Mode is "mono" (monolithic prior, cluster-level dirty sets) or
	// "part" (partitioned prior, region-level dirty sets).
	Mode string `json:"mode"`
	// DeltaPct is the edit size as a percentage of the sink count.
	DeltaPct   float64 `json:"delta_pct"`
	DeltaSinks int     `json:"delta_sinks"`
	Moves      int     `json:"moves"`
	Adds       int     `json:"adds"`
	Removes    int     `json:"removes"`

	DirtyScopes int `json:"dirty_scopes"`
	TotalScopes int `json:"total_scopes"`

	// FullMS re-synthesizes the post-delta placement from scratch; ECOMS
	// applies the delta incrementally against the retained base. Speedup is
	// FullMS / ECOMS.
	FullMS  float64 `json:"full_ms"`
	ECOMS   float64 `json:"eco_ms"`
	Speedup float64 `json:"speedup"`

	LatencyFullPS float64 `json:"latency_full_ps"`
	LatencyECOPS  float64 `json:"latency_eco_ps"`
	SkewFullPS    float64 `json:"skew_full_ps"`
	SkewECOPS     float64 `json:"skew_eco_ps"`
	// LatencyRelErr is |eco-full|/full — the equivalence gap the test suite
	// pins (TestECOVsFullEquivalence).
	LatencyRelErr float64 `json:"latency_rel_err"`
}

// ecoDelta builds a localized delta — the realistic ECO shape: an edit
// concentrated around a random anchor (a macro shifted, a block re-placed)
// rather than uniform noise. Of the `count` sinks nearest the anchor, ~70%
// move by a small local offset, ~15% are removed, and ~15% new sinks appear
// near the anchor. Deterministic in (sinks, seed, count).
func ecoDelta(sinks []geom.Point, die geom.BBox, seed int64, count int) eco.Delta {
	rng := rand.New(rand.NewSource(seed))
	anchor := sinks[rng.Intn(len(sinks))]
	span := 0.02 * (die.W() + die.H()) / 2 // local: ~2% of the die edge
	type ds struct {
		idx  int
		dist float64
	}
	order := make([]ds, len(sinks))
	for i, p := range sinks {
		order[i] = ds{i, p.Dist(anchor)}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].dist != order[b].dist {
			return order[a].dist < order[b].dist
		}
		return order[a].idx < order[b].idx
	})
	if count > len(order) {
		count = len(order)
	}
	var d eco.Delta
	for k := 0; k < count; k++ {
		i := order[k].idx
		switch {
		case k%7 == 3: // ~15%: removed
			d.Remove = append(d.Remove, i)
		case k%7 == 6: // ~15%: a new sink appears nearby
			d.Add = append(d.Add, geom.Pt(
				anchor.X+(rng.Float64()-0.5)*span,
				anchor.Y+(rng.Float64()-0.5)*span,
			))
		default: // ~70%: moved locally
			d.Move = append(d.Move, eco.Move{Sink: i, To: geom.Pt(
				sinks[i].X+(rng.Float64()-0.5)*span,
				sinks[i].Y+(rng.Float64()-0.5)*span,
			)})
		}
	}
	return d
}

// minTime returns fn's fastest wall-clock over repeated runs: at least
// `reps` runs, and — like the Go benchmark harness — it keeps repeating a
// fast fn until minTotal of cumulative measurement has accumulated (capped
// at maxReps), because a 2 ms measurement needs far more samples than a 5 s
// one to shed scheduler and GC noise. The regression gate compares the
// resulting ratios across runs and machines, so their stability is what
// bounds the gate's false-positive rate.
func minTime(reps int, fn func() error) (time.Duration, error) {
	const (
		minTotal = 300 * time.Millisecond
		maxReps  = 25
	)
	best := time.Duration(0)
	total := time.Duration(0)
	for i := 0; i < reps || (total < minTotal && i < maxReps); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// ecoMeasure runs one (base, delta-size) cell: base synthesis with retained
// state, then for each percentage a localized delta applied both
// incrementally and as a full re-synthesis of the post-delta placement.
func ecoMeasure(rep *ecoReport, design string, root geom.Point, sinks []geom.Point, macros []geom.BBox, die geom.BBox, mode string, partMax int, seed int64) error {
	tc := tech.ASAP7()
	opt := core.Options{Workers: ecoWorkers, RetainECO: true}
	if partMax > 0 {
		opt.Partition = partition.Options{MaxSinks: partMax, Macros: macros}
	}
	fmt.Fprintf(os.Stderr, "eco: %s/%s: base synthesis (%d sinks)...\n", design, mode, len(sinks))
	base, err := core.Synthesize(root, sinks, tc, opt)
	if err != nil {
		return fmt.Errorf("%s/%s base: %w", design, mode, err)
	}
	fullOpt := opt
	fullOpt.RetainECO = false
	for pi, pct := range ecoPcts {
		count := int(float64(len(sinks)) * pct / 100)
		if count < 1 {
			count = 1
		}
		d := ecoDelta(sinks, die, seed+int64(pi)*7919, count)
		if err := d.Validate(len(sinks)); err != nil {
			return fmt.Errorf("%s/%s delta %.3g%%: %w", design, mode, pct, err)
		}

		var out *core.Outcome
		ecoTime, err := minTime(ecoReps, func() error {
			var err error
			out, err = core.SynthesizeECO(base, d, core.Options{Workers: ecoWorkers})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s/%s eco %.3g%%: %w", design, mode, pct, err)
		}
		ecoMS := msOf(ecoTime)

		newSinks, _ := eco.Apply(sinks, d)
		var full *core.Outcome
		fullTime, err := minTime(ecoReps, func() error {
			var err error
			full, err = core.Synthesize(root, newSinks, tc, fullOpt)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s/%s full %.3g%%: %w", design, mode, pct, err)
		}
		fullMS := msOf(fullTime)

		row := ecoRow{
			Design: design, Sinks: len(sinks), Mode: mode,
			DeltaPct: pct, DeltaSinks: count,
			Moves: len(d.Move), Adds: len(d.Add), Removes: len(d.Remove),
			DirtyScopes: out.ECO.DirtyScopes, TotalScopes: out.ECO.TotalScopes,
			FullMS: fullMS, ECOMS: ecoMS,
			LatencyFullPS: full.Metrics.Latency, LatencyECOPS: out.Metrics.Latency,
			SkewFullPS: full.Metrics.Skew, SkewECOPS: out.Metrics.Skew,
		}
		if ecoMS > 0 {
			row.Speedup = fullMS / ecoMS
		}
		if full.Metrics.Latency > 0 {
			row.LatencyRelErr = math.Abs(out.Metrics.Latency-full.Metrics.Latency) / full.Metrics.Latency
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(os.Stderr, "eco: %s/%s %.3g%% (%d sinks): full %.1fms, eco %.1fms (%.1fx), dirty %d/%d\n",
			design, mode, pct, count, fullMS, ecoMS, row.Speedup, row.DirtyScopes, row.TotalScopes)
	}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runECOBench generates BENCH_eco.json: C-series designs in both pipeline
// modes plus an XL partitioned design, across delta sizes, and fails if
// the report breaks ecoContract.
func runECOBench(path string, designs []string, xlSinks int, seed int64) error {
	rep := &ecoReport{
		header:  hostHeader(),
		Workers: ecoWorkers, Seed: seed, Reps: ecoReps,
		PartitionMaxSinks: ecoPartition, XLPartitionSinks: ecoXLPartition,
	}
	for _, id := range designs {
		d, err := bench.ByID(id)
		if err != nil {
			return err
		}
		p, err := bench.Generate(d, seed)
		if err != nil {
			return err
		}
		if err := ecoMeasure(rep, d.ID, p.Root, p.Sinks, p.Macros, p.Die, "mono", 0, seed); err != nil {
			return err
		}
		if len(p.Sinks) > ecoPartition {
			if err := ecoMeasure(rep, d.ID, p.Root, p.Sinks, p.Macros, p.Die, "part", ecoPartition, seed); err != nil {
				return err
			}
		}
	}
	if xlSinks > 0 {
		p, err := bench.GenerateXL(xlSinks, seed)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("XL%dk", xlSinks/1000)
		if err := ecoMeasure(rep, label, p.Root, p.Sinks, p.Macros, p.Die, "part", ecoXLPartition, seed); err != nil {
			return err
		}
	}
	rep.Violations = ecoContract(rep)
	return writeReport(path, "eco", rep, rep.Violations)
}
