package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
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
	Workers           int      `json:"workers"`
	Seed              int64    `json:"seed"`
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
	ecoPartition   = 2000  // region capacity of the partitioned C-series rows
	ecoXLPartition = 50000 // region capacity of the XL rows
)

// ecoPcts are the delta sizes, in percent of the sink count.
var ecoPcts = []float64{0.1, 1, 10}

// ecoContract checks that every row is plausible and that, when the run
// includes C3 at a 1% delta, its best median speedup is at least 5x.
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

	// Each of Reps pairs times the incremental run against the retained
	// base, then a from-scratch re-synthesis of the post-delta placement.
	// FullMS and ECOMS are the medians of each side; Speedup is the median
	// of the per-pair ratios full/ECO, and SpeedupQ1 / SpeedupQ3 their
	// quartiles.
	Reps      int     `json:"reps"`
	FullMS    float64 `json:"full_ms"`
	ECOMS     float64 `json:"eco_ms"`
	Speedup   float64 `json:"speedup"`
	SpeedupQ1 float64 `json:"speedup_q1"`
	SpeedupQ3 float64 `json:"speedup_q3"`

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

// timePairs times the ECO run and the full re-synthesis in pairs, the ECO
// run first, so both sides of a pair's ratio see the same host state. Each
// run follows a collection outside its timed span, as testing.B does
// before each run, so neither side pays for the other's garbage. It takes
// at least minPairs pairs, more until they add up to pairTotal, and at
// most maxPairs: a 30 ms pair needs more samples than a 2 s one to shed
// scheduler noise. It returns the per-pair times in ms and ratios.
func timePairs(eco, full func() error) (ecoMS, fullMS, ratios []float64, err error) {
	const (
		minPairs  = 3
		maxPairs  = 25
		pairTotal = time.Second
	)
	timed := func(fn func() error) (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	var total time.Duration
	for i := 0; i < minPairs || (total < pairTotal && i < maxPairs); i++ {
		e, err := timed(eco)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("eco: %w", err)
		}
		f, err := timed(full)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("full: %w", err)
		}
		total += e + f
		ecoMS, fullMS = append(ecoMS, msOf(e)), append(fullMS, msOf(f))
		ratios = append(ratios, float64(f)/float64(e))
	}
	return ecoMS, fullMS, ratios, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
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

		newSinks, _ := eco.Apply(sinks, d)
		var out, full *core.Outcome
		ecoMS, fullMS, ratios, err := timePairs(func() error {
			var err error
			out, err = core.SynthesizeECO(base, d, core.Options{Workers: ecoWorkers})
			return err
		}, func() error {
			var err error
			full, err = core.Synthesize(root, newSinks, tc, fullOpt)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s/%s %.3g%%: %w", design, mode, pct, err)
		}

		row := ecoRow{
			Design: design, Sinks: len(sinks), Mode: mode,
			DeltaPct: pct, DeltaSinks: count,
			Moves: len(d.Move), Adds: len(d.Add), Removes: len(d.Remove),
			DirtyScopes: out.ECO.DirtyScopes, TotalScopes: out.ECO.TotalScopes,
			Reps: len(ratios), FullMS: quantile(fullMS, 0.5), ECOMS: quantile(ecoMS, 0.5),
			Speedup: quantile(ratios, 0.5), SpeedupQ1: quantile(ratios, 0.25), SpeedupQ3: quantile(ratios, 0.75),
			LatencyFullPS: full.Metrics.Latency, LatencyECOPS: out.Metrics.Latency,
			SkewFullPS: full.Metrics.Skew, SkewECOPS: out.Metrics.Skew,
		}
		if full.Metrics.Latency > 0 {
			row.LatencyRelErr = math.Abs(out.Metrics.Latency-full.Metrics.Latency) / full.Metrics.Latency
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(os.Stderr, "eco: %s/%s %.3g%% (%d sinks): %d pairs, full %.1fms, eco %.1fms, speedup %.1fx (q1 %.1f, q3 %.1f), dirty %d/%d\n",
			design, mode, pct, count, row.Reps, row.FullMS, row.ECOMS, row.Speedup, row.SpeedupQ1, row.SpeedupQ3, row.DirtyScopes, row.TotalScopes)
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
		Workers: ecoWorkers, Seed: seed,
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
