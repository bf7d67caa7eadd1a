package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dscts/internal/bench"
	"dscts/internal/cluster"
	"dscts/internal/core"
	"dscts/internal/dme"
	"dscts/internal/eval"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/refine"
	"dscts/internal/tech"
)

// The suite-mono workload: a closed loop of library core.Synthesize calls
// with the paper's default options at two workers, rotating over the five
// Table II designs. The first five ops are C1..C5 at placement seed 1, so
// the golden metrics apply to them; every later op synthesizes a fresh
// placement at a seed drawn from the workload seed. Synthesis cost varies
// a lot from one placement to the next, so a run averages over hundreds of
// placements rather than cycling through a few, which keeps throughput
// steady from one workload seed to the next; and since the designs rotate,
// the median op is a C1 instance. Clustering, DME, DP insertion and
// refinement do nearly all the work; the service, partitioning, stitch and
// corners none.

// libWorkers is the worker count of the library workloads.
const libWorkers = 2

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

const (
	// suiteMaxOps bounds the generated op list, several times what a run
	// completes.
	suiteMaxOps = 4000
	// suiteQualityOps is the op prefix whose results give the quality
	// metrics (ten placements per design), so they do not depend on how
	// far a run gets.
	suiteQualityOps = 50
)

// suiteOp is one op of suite-mono.
type suiteOp struct {
	Design string `json:"design"`
	Seed   int64  `json:"seed"`
}

// suiteOps derives the op list from the workload seed.
func suiteOps(seed int64) []suiteOp {
	suite := bench.Suite()
	ops := make([]suiteOp, 0, suiteMaxOps)
	for _, d := range suite {
		ops = append(ops, suiteOp{Design: d.ID, Seed: 1})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := len(ops); i < suiteMaxOps; i++ {
		ops = append(ops, suiteOp{Design: suite[i%len(suite)].ID, Seed: 2 + rng.Int63n(1<<40)})
	}
	return ops
}

// placement is a generated clock root and sink set.
type placement struct {
	root  geom.Point
	sinks []geom.Point
}

func generate(op suiteOp) (placement, error) {
	d, err := bench.ByID(op.Design)
	if err != nil {
		return placement{}, err
	}
	p, err := bench.Generate(d, op.Seed)
	if err != nil {
		return placement{}, err
	}
	return placement{root: p.Root, sinks: p.Sinks}, nil
}

// tally sums per-layer counters; safe for concurrent use.
type tally struct {
	mu sync.Mutex
	m  map[string]float64
}

func (t *tally) add(name string, v float64) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]float64)
	}
	t.m[name] += v
	t.mu.Unlock()
}

func (t *tally) get(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[name]
}

// perOp stores every counter divided by the op count.
func (t *tally) perOp(out map[string]float64, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.m {
		out[k] = v / float64(max(ops, 1))
	}
}

// replica replays core's monolithic flow (route, insert, refine; the
// refinement's exit evaluation is the flow's final evaluation) by calling
// each layer directly, so that every call gets its own span. It must
// produce exactly core.Synthesize's Metrics for the default options; the
// traced run checks that on every op.
func replica(ctx context.Context, tr *tracer, op, parent int, p placement, tc *tech.Tech, workers int, t *tally) (*eval.Metrics, error) {
	def := cluster.DefaultDualOptions()
	d := cluster.DualOptions{HighSize: def.HighSize, LowSize: def.LowSize, MaxIter: def.MaxIter, Seed: def.Seed, Workers: workers}
	front := tc.Front()
	d.CapOf = func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) }
	d.CapLimit = 0.6 * tc.Buf.MaxCap

	a := heapAllocBytes()
	s := tr.begin(op, parent, "cluster")
	dual, err := cluster.DualLevel(p.sinks, d)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("clustering: %w", err)
	}
	t.add("cluster.alloc_mb", float64(heapAllocBytes()-a)/1e6)
	t.add("cluster.low_clusters", float64(dual.NumLow()))

	s = tr.begin(op, parent, "dme")
	tree, err := dme.HierarchicalRoute(p.root, p.sinks, dual, tc, dme.HierOptions{MaxTrunkEdge: 40})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	t.add("dme.tree_nodes", float64(tree.Len()))

	cfg := insert.DefaultConfig(tc)
	cfg.Workers = workers
	a = heapAllocBytes()
	s = tr.begin(op, parent, "insert")
	dp, err := insert.RunContext(ctx, tree, cfg)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("insertion: %w", err)
	}
	t.add("insert.alloc_mb", float64(heapAllocBytes()-a)/1e6)
	t.add("insert.dp_nodes", float64(dp.Nodes))
	t.add("insert.solutions", float64(dp.Solutions))

	rp := refine.DefaultParams()
	rp.Workers = workers
	s = tr.begin(op, parent, "refine")
	rr, err := refine.RefineContext(ctx, tree, tc, rp)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("refinement: %w", err)
	}
	t.add("refine.attempted", float64(rr.Attempted))
	t.add("refine.inserted", float64(rr.Inserted))
	m := rr.After
	return &m, nil
}

func runSuite(cfg config) (*report, error) {
	tc := tech.ASAP7()
	ops := suiteOps(cfg.seed)
	fp, err := fingerprint(cfg.workload, struct {
		Ops     []suiteOp `json:"ops"`
		Workers int       `json:"workers"`
		Options string    `json:"options"`
	}{ops, libWorkers, "paper defaults"})
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg, fp)
	opt := core.Options{Workers: libWorkers}

	// Set-up: generate the first op's placement and run it once, untimed,
	// several times.
	var setups, gens []float64
	var warm []digest
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		p, err := generate(ops[0])
		if err != nil {
			return nil, err
		}
		gens = append(gens, msSince(t0))
		out, err := core.Synthesize(p.root, p.sinks, tc, opt)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warm = append(warm, digestOf(out.Metrics, true))
	}
	rep.Metrics["setup_s"] = median(setups)
	rep.Metrics["bench.gen_ms"] = median(gens)

	// Timed phase: one op after another until the ops' summed wall time
	// reaches the run length, and at least the quality prefix has run.
	// Generating each op's placement and the bookkeeping between ops are
	// not timed.
	var tr *tracer
	var layers tally
	if cfg.trace {
		tr = newTracer()
	}
	got := make([]digest, 0, len(ops))
	var q quality
	var lat, doneAt []float64
	var busy time.Duration
	ctx := context.Background()
	ph := startPhase()
	for i := 0; (busy < cfg.duration || i < suiteQualityOps) && i < len(ops); i++ {
		rep.Attempted++
		p, err := generate(ops[i])
		if err != nil {
			return nil, err
		}
		var m *eval.Metrics
		t0 := time.Now()
		if cfg.trace {
			root := tr.begin(i, 0, "op")
			m, err = replica(ctx, tr, i, root, p, tc, libWorkers, &layers)
			tr.end(root)
		} else {
			var out *core.Outcome
			if out, err = core.SynthesizeContext(ctx, p.root, p.sinks, tc, opt); err == nil {
				m = out.Metrics
			}
		}
		el := time.Since(t0)
		busy += el
		if err != nil {
			rep.fail("op %d (%s seed %d): %v", i, ops[i].Design, ops[i].Seed, err)
			got = append(got, digest{})
			continue
		}
		lat = append(lat, ms(el))
		doneAt = append(doneAt, busy.Seconds())
		got = append(got, digestOf(m, true))
		if i < suiteQualityOps {
			q.add(m)
		}
	}
	ph.stop()
	if len(got) == len(ops) {
		rep.note("the op list ran out before the run length")
	}

	// Correctness, untimed: every result must be bit-identical to a direct
	// core.Synthesize of the same input at one worker, and the seed-1
	// results must match the golden metrics.
	errs := make([]error, len(got))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(got); i = int(next.Add(1) - 1) {
				errs[i] = checkSuiteOp(cfg, ops[i], got[i], tc)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && got[i] != (digest{}) {
			rep.fail("op %d (%s seed %d): %v", i, ops[i].Design, ops[i].Seed, err)
		}
	}
	for _, w := range warm {
		if w != got[0] {
			rep.fail("warm-up result %+v differs from op 0 %+v", w, got[0])
		}
	}

	if err := q.into(rep.Metrics); err != nil {
		return nil, err
	}
	done := len(lat)
	// A window is one rotation through the five designs.
	rep.Metrics["ops_per_s"] = windowRate(doneAt, len(bench.Suite()))
	rep.Metrics["op_p50_ms"] = median(lat)
	ph.into(rep.Metrics, done)
	rep.latencyNotes("op latency", lat)
	rep.OpMS = lat
	if cfg.trace {
		layers.perOp(rep.Metrics, done)
		spans := tr.snapshot()
		self := selfTimes(spans)
		for _, l := range []string{"cluster", "dme", "insert", "refine"} {
			rep.Metrics[l+".self_ms"] = self[l] / float64(max(done, 1))
		}
		rep.Metrics["route.self_ms"] = rep.Metrics["cluster.self_ms"] + rep.Metrics["dme.self_ms"]
		if a := layers.get("refine.attempted"); a > 0 {
			rep.Metrics["refine.accept_ratio"] = layers.get("refine.inserted") / a
		}
		rep.Metrics["trace.ops_per_s"] = rep.Metrics["ops_per_s"]
		rep.Metrics["trace.coverage"] = coverage(spans)
		if err := writeTrace(cfg, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkSuiteOp re-synthesizes one op's input directly at one worker and
// compares the result; seed-1 inputs are also held to their golden pins.
func checkSuiteOp(cfg config, op suiteOp, got digest, tc *tech.Tech) error {
	p, err := generate(op)
	if err != nil {
		return err
	}
	ref, err := core.Synthesize(p.root, p.sinks, tc, core.Options{Workers: 1})
	if err != nil {
		return fmt.Errorf("reference synthesis: %w", err)
	}
	if want := digestOf(ref.Metrics, true); got != want {
		return fmt.Errorf("result %+v differs from direct synthesis %+v", got, want)
	}
	if op.Seed != 1 {
		return nil
	}
	g, err := loadGolden(cfg.golden, op.Design)
	if err != nil {
		return err
	}
	return checkGolden(g, len(p.sinks), ref.Metrics)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
