package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dscts/internal/fault"
	"dscts/internal/obs"
	"dscts/internal/serve"
	"dscts/internal/store"
)

// defaultChaosSpec is the built-in seeded fault schedule of `-chaos default`:
// every failure mode the hardening has to absorb. The one-shot nth= rules
// guarantee each mode fires at least once even in a short smoke (so every
// classification bucket is exercised); the rate rules keep firing for as
// long as the soak runs. The hang is the nastiest entry — a worker stuck
// past its deadline, reclaimed only by the watchdog — so it is rare and
// bounded (3s against the jobs' 2s request deadline).
const defaultChaosSpec = "panic@serve.job:nth=3;" +
	"hang@serve.job:nth=11:3s;" +
	"cancel@serve.job:nth=7;" +
	"panic@serve.job:0.02;" +
	"error@core.route:0.02;" +
	"error@core.eco:0.02;" +
	"delay@core.insert:0.05:20ms;" +
	"hang@serve.job:0.004:3s;" +
	"cancel@serve.job:0.01;" +
	"corrupt@serve.cache:0.05"

// chaosOps classifies every operation of the soak. An operation is one
// logical client call after retries; exactly one bucket counts it.
type chaosOps struct {
	// Total is the number of operations issued.
	Total int64 `json:"total"`
	// Done finished successfully (CacheHits of them from the result cache).
	Done      int64 `json:"done"`
	CacheHits int64 `json:"cache_hits"`
	// InjectedErrors are jobs failed by a scripted mid-flow error (the error
	// string names the injection).
	InjectedErrors int64 `json:"injected_errors"`
	// Timeouts are HTTP 504s: the per-job deadline fired (including hung
	// bodies reclaimed by the watchdog).
	Timeouts int64 `json:"timeouts"`
	// Panics are HTTP 500s: the job body panicked and the daemon recovered.
	Panics int64 `json:"panics"`
	// Cancelled jobs were stopped by an injected context cancellation.
	Cancelled int64 `json:"cancelled"`
	// Rejected operations exhausted their retries against 429/503.
	Rejected int64 `json:"rejected"`
	// OtherFailures are structured failures outside the buckets above.
	OtherFailures int64 `json:"other_failures"`
	// Unstructured counts everything else — transport errors, empty error
	// bodies. The soak asserts this stays ZERO: every failure the daemon
	// produces under chaos must be a structured, classified response.
	Unstructured int64 `json:"unstructured"`
}

// chaosReport is the machine-readable BENCH_chaos.json.
type chaosReport struct {
	header
	FaultSpec  string  `json:"fault_spec"`
	FaultSeed  int64   `json:"fault_seed"`
	DurationMS float64 `json:"duration_ms"`
	Workers    int     `json:"client_concurrency"`

	Ops chaosOps `json:"ops"`
	// ErrorRate is the non-success fraction of operations.
	ErrorRate float64 `json:"error_rate"`
	// InjectedFaults totals the registry's fired injections across kinds.
	InjectedFaults int64 `json:"injected_faults"`
	// LeakedGoroutines is the post-shutdown goroutine delta.
	LeakedGoroutines int `json:"leaked_goroutines"`
	// Restart is set when the store already held result blobs at open:
	// the soak restarted over an earlier run's cache directory.
	Restart bool `json:"restart"`
	// Store is the persistent tier's final snapshot, taken after Close
	// flushed the write-behind tail; nil without -cache-dir.
	Store *store.Stats `json:"store,omitempty"`

	Stats serve.Stats `json:"server_stats"`
	// Metrics is a GET /metrics scrape taken at the same quiescent moment
	// as Stats.
	Metrics map[string]float64 `json:"metrics"`
}

// maxChaosErrorRate bounds a soak's non-success fraction: each job crosses
// several injection points, so the failure rate is roughly the sum of the
// per-point rates; 0.5 leaves room for unlucky seeds without masking a
// daemon that mostly fails.
const maxChaosErrorRate = 0.5

// opsViolations is the part of the chaos contract a single-node and a
// cluster soak share: real work got through, every failure was structured,
// and the error rate stayed bounded.
func opsViolations(ops chaosOps, errorRate float64) []string {
	v := []string{}
	if ops.Done < 1 {
		v = append(v, fmt.Sprintf("no operation of %d succeeded", ops.Total))
	}
	if ops.Unstructured != 0 {
		v = append(v, fmt.Sprintf("%d unstructured failures", ops.Unstructured))
	}
	if errorRate > maxChaosErrorRate {
		v = append(v, fmt.Sprintf("error rate %.3f exceeds %.2f", errorRate, maxChaosErrorRate))
	}
	return v
}

// chaosContract is the fault-tolerance contract of a soak (DESIGN.md §5):
// work got through at >= 1 op/s, every failure was structured, nothing
// leaked, the worker budget came back, faults actually fired, the error
// rate stayed bounded and /metrics agrees with /stats. A soak that
// restarted over an earlier run's store must also have warm-loaded a
// result and lost no write.
func chaosContract(r *chaosReport) []string {
	v := opsViolations(r.Ops, r.ErrorRate)
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	if secs := r.DurationMS / 1000; secs <= 0 || float64(r.Ops.Total)/secs < 1 {
		bad("%d ops over %.1fs, want >= 1 op/s", r.Ops.Total, secs)
	}
	if r.LeakedGoroutines != 0 {
		bad("%d leaked goroutines", r.LeakedGoroutines)
	}
	if j := r.Stats.Jobs; j.Running != 0 || j.AbandonedWorkers != 0 {
		bad("worker budget not reclaimed: %d running, %d abandoned", j.Running, j.AbandonedWorkers)
	}
	if r.InjectedFaults == 0 {
		bad("fault registry never fired (schedule or threading broken)")
	}
	if err := serve.CheckMetrics(r.Stats, r.Metrics); err != nil {
		bad("%v", err)
	}
	if r.Restart {
		switch st := r.Store; {
		case st == nil || st.WarmResults < 1:
			bad("restart warm-loaded no result (persistence silently stopped working)")
		case st.WriteErrors != 0 || st.Dropped != 0:
			bad("write-behind lost data: %d write errors, %d dropped", st.WriteErrors, st.Dropped)
		}
	}
	return v
}

// runChaos soaks an in-process dsctsd under a seeded fault schedule for the
// given duration, classifies every operation, writes BENCH_chaos.json and
// fails if the report breaks chaosContract.
func runChaos(path, spec string, seed int64, duration time.Duration, cacheDir string) error {
	if spec == "default" {
		spec = defaultChaosSpec
	}
	reg, err := fault.Parse(spec, seed)
	if err != nil {
		return err
	}
	before := runtime.NumGoroutine()

	// With -cache-dir the soak runs over a persistent tier: a second soak on
	// the same directory is a restart-mid-chaos test — the warm start must
	// absorb whatever the interrupted run left behind.
	var pst *store.Store
	restart := false
	if cacheDir != "" {
		pst, err = store.Open(store.Config{Dir: cacheDir})
		if err != nil {
			return err
		}
		restart = pst.Stats().ResultEntries > 0
	}

	srv := serve.NewServer(serve.Config{
		MaxRunning: 4, MaxQueued: 64,
		JobTimeout:    5 * time.Second,
		WatchdogGrace: 300 * time.Millisecond,
		Faults:        reg,
		Metrics:       obs.NewRegistry(),
		Store:         pst,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	// The request pool mixes plain synthesis with ECO splices so the chaos
	// schedule reaches the core phase boundaries AND the incremental path.
	type op struct {
		req *serve.Request
		eco bool
	}
	pool := []op{
		{req: &serve.Request{Design: "C1"}},
		{req: &serve.Request{Design: "C2"}},
		{req: &serve.Request{Design: "C1", Options: serve.OptionsSpec{FanoutThreshold: 150}}},
		{req: &serve.Request{Design: "C2", Options: serve.OptionsSpec{SkipRefine: true}}},
		{req: &serve.Request{Design: "C1", Seed: 2}},
		{req: &serve.Request{Design: "C1", Delta: &serve.DeltaSpec{Add: []serve.XY{{X: 120, Y: 80}}}}, eco: true},
		{req: &serve.Request{Design: "C2", Delta: &serve.DeltaSpec{Move: []serve.MoveSpec{{Sink: 3, X: 50, Y: 60}}}}, eco: true},
	}

	var ops chaosOps
	count := func(p *int64) { atomic.AddInt64(p, 1) }
	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clientConc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &serve.Client{Base: base, RetryBackoff: 5 * time.Millisecond}
			for n := 0; time.Now().Before(deadline); n++ {
				o := pool[(w+n)%len(pool)]
				req := *o.req
				req.TimeoutMS = 2000
				req.IdempotencyKey = fmt.Sprintf("chaos-%d-%d", w, n)
				var info *serve.JobInfo
				var err error
				if o.eco {
					info, err = client.ECO(context.Background(), &req)
				} else {
					info, err = client.Synthesize(context.Background(), &req)
				}
				count(&ops.Total)
				classify(&ops, info, err, count)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	client := serve.NewClient(base)
	st, err := client.Stats(context.Background())
	if err != nil {
		return fmt.Errorf("chaos: daemon unreachable after the soak (crashed?): %w", err)
	}
	// A hang injected in the soak's final seconds leaves a reclaimed worker
	// whose body is still unwinding; give the daemon a bounded window to
	// quiesce before taking the gated snapshot. A genuine leak never clears,
	// so the contract still catches it.
	for quiesce := time.Now().Add(5 * time.Second); (st.Jobs.Running != 0 || st.Jobs.AbandonedWorkers != 0) && time.Now().Before(quiesce); {
		time.Sleep(50 * time.Millisecond)
		if st, err = client.Stats(context.Background()); err != nil {
			return fmt.Errorf("chaos: daemon unreachable after the soak (crashed?): %w", err)
		}
	}
	if err := client.Health(context.Background()); err != nil {
		return fmt.Errorf("chaos: daemon unhealthy after the soak: %w", err)
	}
	// Scrape at the same quiescent point as Stats: the clients have joined
	// and the daemon is still up, so the two snapshots must agree.
	metrics, err := scrapeMetrics(base)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	hs.Close()
	srv.Close()
	var final *store.Stats
	if pst != nil {
		if err := pst.Close(); err != nil {
			return fmt.Errorf("chaos: store close: %w", err)
		}
		s := pst.Stats()
		final = &s
	}

	var injected int64
	for _, n := range st.Faults {
		injected += n
	}
	rep := chaosReport{
		header:    hostHeader(),
		FaultSpec: spec, FaultSeed: seed,
		DurationMS:       msOf(wall),
		Workers:          clientConc,
		Ops:              ops,
		ErrorRate:        float64(ops.Total-ops.Done) / float64(max(ops.Total, 1)),
		InjectedFaults:   injected,
		LeakedGoroutines: leakedSince(before),
		Restart:          restart,
		Store:            final,
		Stats:            *st,
		Metrics:          metrics,
	}
	rep.Violations = chaosContract(&rep)
	fmt.Printf("  %d ops in %.1fs x%d clients: %d done (%d cached), %d injected errors, %d timeouts, %d panics, %d cancelled; %d faults fired; error rate %.3f\n",
		ops.Total, wall.Seconds(), clientConc, ops.Done, ops.CacheHits,
		ops.InjectedErrors, ops.Timeouts, ops.Panics, ops.Cancelled, injected, rep.ErrorRate)
	return writeReport(path, "chaos", &rep, rep.Violations)
}

// leakedSince waits up to 10s for the goroutine count to return to its
// level before a run (abandoned job bodies are joined by Close) and
// returns what is left above it.
func leakedSince(before int) int {
	for settle := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(settle); {
		time.Sleep(20 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-before, 0)
}

// scrapeMetrics fetches and parses base/metrics.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: HTTP %d", resp.StatusCode)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return samples, nil
}

// classify sorts one operation's outcome into its chaosOps bucket.
func classify(ops *chaosOps, info *serve.JobInfo, err error, count func(*int64)) {
	if err == nil {
		switch info.State {
		case serve.StateDone:
			count(&ops.Done)
			if info.CacheHit {
				count(&ops.CacheHits)
			}
		case serve.StateCancelled:
			count(&ops.Cancelled)
		case serve.StateFailed:
			if strings.Contains(info.Error, "injected fault") {
				count(&ops.InjectedErrors)
			} else if info.Error != "" {
				count(&ops.OtherFailures)
			} else {
				count(&ops.Unstructured)
			}
		default:
			count(&ops.Unstructured)
		}
		return
	}
	var apiErr interface{ HTTPStatus() int }
	if errors.As(err, &apiErr) {
		switch apiErr.HTTPStatus() {
		case http.StatusGatewayTimeout:
			count(&ops.Timeouts)
		case http.StatusInternalServerError:
			count(&ops.Panics)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			count(&ops.Rejected)
		default:
			count(&ops.OtherFailures)
		}
		return
	}
	count(&ops.Unstructured)
}
