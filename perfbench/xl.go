package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// The xl-partitioned workload: a closed loop of core.Synthesize on
// 250k-sink bench.GenerateXL placements, cut into kd regions of at most 50k
// sinks, with slow/typ/fast corner sign-off at two workers. Partitioning,
// the per-region stacks, stitch, hierarchical evaluation and corners do the
// work; the slowest region bounds the op time and tree memory dominates.
// Every op synthesizes a fresh placement: the cost of one placement depends
// on where its hotspots fall, so a run averages over several.

// xlWork is the workload's op list, recorded in its fingerprint: one
// placement seed per op and the options every op runs with.
type xlWork struct {
	Sinks    int      `json:"sinks"`
	MaxSinks int      `json:"partition_max_sinks"`
	Strategy string   `json:"partition_strategy"`
	Corners  []string `json:"corners"`
	Workers  int      `json:"workers"`
	Seeds    []int64  `json:"seeds"`
}

const (
	// xlSetupReps is smaller than setupReps: every xl set-up runs a
	// two-second warm-up synthesis.
	xlSetupReps = 3
	// xlMaxOps bounds the op list, many times what a run completes.
	xlMaxOps = 200
	// xlQualityOps is the op prefix whose results give the quality metrics.
	xlQualityOps = 4
)

func xlWorkFor(seed int64) xlWork {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, xlMaxOps)
	for i := range seeds {
		seeds[i] = 1 + rng.Int63n(1<<40)
	}
	return xlWork{
		Sinks: 250_000, MaxSinks: 50_000, Strategy: partition.StrategyKD,
		Corners: []string{"slow", "typ", "fast"}, Workers: libWorkers, Seeds: seeds,
	}
}

// op generates op i's placement and the options it runs with.
func (w xlWork) op(i int, corners []corner.Corner) (*bench.Placement, core.Options, error) {
	p, err := bench.GenerateXL(w.Sinks, w.Seeds[i])
	if err != nil {
		return nil, core.Options{}, err
	}
	return p, core.Options{
		Workers:   w.Workers,
		Partition: partition.Options{MaxSinks: w.MaxSinks, Strategy: w.Strategy, Macros: p.Macros},
		Corners:   corners,
	}, nil
}

// xlResult is the comparable part of one xl outcome.
type xlResult struct {
	metrics digest
	corners []digest
}

func xlResultOf(out *core.Outcome) xlResult {
	r := xlResult{metrics: digestOf(out.Metrics, true)}
	if out.Corners != nil {
		for _, c := range out.Corners.Results {
			r.corners = append(r.corners, digestOf(c.Metrics, false))
		}
	}
	return r
}

func (r xlResult) equal(o xlResult) bool {
	if r.metrics != o.metrics || len(r.corners) != len(o.corners) {
		return false
	}
	for i := range r.corners {
		if r.corners[i] != o.corners[i] {
			return false
		}
	}
	return true
}

func runXL(cfg config) (*report, error) {
	tc := tech.ASAP7()
	w := xlWorkFor(cfg.seed)
	fp, err := fingerprint(cfg.workload, w)
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg, fp)
	corners, err := corner.ParseList(strings.Join(w.Corners, ","))
	if err != nil {
		return nil, err
	}

	// Set-up: generate op 0's placement and run it once, untimed. The first
	// warm-up's result is op 0's reference.
	var setups, gens []float64
	var warm xlResult
	for r := 0; r < xlSetupReps; r++ {
		t0 := time.Now()
		p, opt, err := w.op(0, corners)
		if err != nil {
			return nil, err
		}
		gens = append(gens, msSince(t0))
		out, err := core.Synthesize(p.Root, p.Sinks, tc, opt)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if res := xlResultOf(out); r == 0 {
			warm = res
		} else if !res.equal(warm) {
			rep.fail("warm-up %d differs from the first warm-up", r)
		}
	}
	rep.Metrics["setup_s"] = median(setups)
	rep.Metrics["bench.gen_ms"] = median(gens)

	// Timed phase: one op after another until the ops' summed wall time
	// reaches the run length, and at least the quality prefix has run.
	// Generating each placement is not timed.
	var tr *tracer
	var layers tally
	if cfg.trace {
		tr = newTracer()
	}
	var got []xlResult
	var q quality
	var lat, doneAt []float64
	var busy time.Duration
	ctx := context.Background()
	ph := startPhase()
	for i := 0; (busy < cfg.duration || i < xlQualityOps) && i < len(w.Seeds); i++ {
		rep.Attempted++
		p, opt, err := w.op(i, corners)
		if err != nil {
			return nil, err
		}
		runOpt := opt
		var x *xlTrace
		if cfg.trace {
			if x, err = newXLTrace(tr, i, p, tc, opt, &layers); err != nil {
				return nil, err
			}
			runOpt = x.options()
		}
		t0 := time.Now()
		root := tr.begin(i, 0, "op")
		if x != nil {
			x.root = root
		}
		out, err := core.SynthesizeContext(ctx, p.Root, p.Sinks, tc, runOpt)
		tr.end(root)
		el := time.Since(t0)
		busy += el
		if x != nil {
			x.finish()
		}
		if err != nil {
			rep.fail("op %d: %v", i, err)
			got = append(got, xlResult{})
			continue
		}
		lat = append(lat, ms(el))
		doneAt = append(doneAt, busy.Seconds())
		got = append(got, xlResultOf(out))
		if i < xlQualityOps {
			q.add(out.Metrics)
		}
	}
	ph.stop()

	// Correctness, untimed: every result must be bit-identical to a direct
	// core.Synthesize of the same placement (op 0's is the warm-up).
	for i, res := range got {
		if res.metrics == (digest{}) {
			continue // already counted as failed
		}
		want := warm
		if i > 0 {
			p, opt, err := w.op(i, corners)
			if err != nil {
				return nil, err
			}
			out, err := core.Synthesize(p.Root, p.Sinks, tc, opt)
			if err != nil {
				return nil, fmt.Errorf("reference synthesis: %w", err)
			}
			want = xlResultOf(out)
		}
		if !res.equal(want) {
			rep.fail("op %d: result %+v differs from the direct synthesis %+v", i, res.metrics, want.metrics)
		}
	}

	if err := q.into(rep.Metrics); err != nil {
		return nil, err
	}
	done := len(lat)
	rep.Metrics["ops_per_s"] = windowRate(doneAt, 1)
	rep.Metrics["op_p50_ms"] = median(lat)
	ph.into(rep.Metrics, done)
	rep.latencyNotes("op latency", lat)
	rep.OpMS = lat
	if cfg.trace {
		layers.perOp(rep.Metrics, done)
		spans := tr.snapshot()
		self := selfTimes(spans)
		n := float64(max(done, 1))
		rep.Metrics["stitch.self_ms"] = self["stitch"] / n
		rep.Metrics["eval.self_ms"] = self["eval"] / n
		rep.Metrics["corner.self_ms"] = self["corner"] / n
		rep.Metrics["trace.ops_per_s"] = rep.Metrics["ops_per_s"]
		rep.Metrics["trace.coverage"] = coverage(spans)
		rep.note("partition span self time (split and fan-out outside the regions): %.4g ms/op", self["partition"]/n)
		if err := writeTrace(cfg, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// xlTrace records one traced xl op. Each region runs through
// core.RunRegion under a two-slot semaphore, as core's own fan-out runs two
// at a time, and the partition, stitch, eval and corner phases are timed
// from core's progress events.
type xlTrace struct {
	tr    *tracer
	op    int
	root  int // the op span, set once the op starts
	tc    *tech.Tech
	opt   core.Options
	inner int
	t     *tally

	mu       sync.Mutex
	open     map[core.Phase]int
	regionMS []float64
}

var xlLayerOf = map[core.Phase]string{
	core.PhasePartition: "partition", core.PhaseStitch: "stitch",
	core.PhaseEval: "eval", core.PhaseCorners: "corner",
}

// newXLTrace times partition.Split directly, outside the op, and sizes the
// per-region worker budget as core does.
func newXLTrace(tr *tracer, op int, p *bench.Placement, tc *tech.Tech, opt core.Options, t *tally) (*xlTrace, error) {
	t0 := time.Now()
	regions, err := partition.Split(p.Sinks, opt.Partition)
	if err != nil {
		return nil, err
	}
	t.add("partition.split_ms", msSince(t0))
	t.add("partition.regions", float64(len(regions)))
	return &xlTrace{
		tr: tr, op: op, tc: tc, opt: opt, t: t,
		inner: max(1, opt.Workers/len(regions)),
		open:  make(map[core.Phase]int),
	}, nil
}

// options returns the op's options with the tracing hooks installed.
func (x *xlTrace) options() core.Options {
	run := x.opt
	run.Progress = x.progress
	sem := make(chan struct{}, x.opt.Workers)
	run.RegionExec = func(ctx context.Context, w core.RegionWork) (*core.RegionOut, error) {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-sem }()
		return x.region(ctx, w)
	}
	return run
}

func (x *xlTrace) progress(ev core.Progress) {
	x.mu.Lock()
	defer x.mu.Unlock()
	switch {
	case ev.Phase == core.PhaseCorners && ev.Total > 0:
		x.t.add("corner.count", 1)
	case ev.Total > 0:
		// A region completed; its span comes from region.
	case !ev.Done:
		if ev.Phase == core.PhaseEval {
			x.t.add("eval.calls", 1)
		}
		x.open[ev.Phase] = x.tr.begin(x.op, x.root, xlLayerOf[ev.Phase])
	default:
		x.tr.end(x.open[ev.Phase])
	}
}

func (x *xlTrace) region(ctx context.Context, w core.RegionWork) (*core.RegionOut, error) {
	start := time.Now()
	ro, err := core.RunRegion(ctx, w, x.tc, x.opt, x.inner)
	end := time.Now()
	x.mu.Lock()
	x.tr.record(x.op, x.open[core.PhasePartition], "region", start, end)
	x.regionMS = append(x.regionMS, ms(end.Sub(start)))
	x.mu.Unlock()
	if err != nil {
		return nil, err
	}
	x.t.add("route.self_ms", ms(ro.RouteTime))
	x.t.add("insert.self_ms", ms(ro.InsertTime))
	x.t.add("refine.self_ms", ms(ro.RefineTime))
	x.t.add("insert.dp_nodes", float64(ro.DPNodes))
	x.t.add("insert.solutions", float64(ro.DPSolutions))
	return ro, nil
}

// finish folds the op's region times into the tally once the op returned.
func (x *xlTrace) finish() {
	x.mu.Lock()
	defer x.mu.Unlock()
	sum, worst := 0.0, 0.0
	for _, r := range x.regionMS {
		sum += r
		worst = max(worst, r)
	}
	x.t.add("partition.region_sum_ms", sum)
	x.t.add("partition.region_max_ms", worst)
	if sum > 0 {
		x.t.add("partition.imbalance", worst/(sum/float64(len(x.regionMS))))
	}
}
