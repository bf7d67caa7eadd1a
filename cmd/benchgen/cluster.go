package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dscts/internal/clusterd"
	"dscts/internal/fault"
	"dscts/internal/obs"
	"dscts/internal/serve"
)

// clusterNodeReport is one node's share of the routed-load phase.
type clusterNodeReport struct {
	NodeID string `json:"node_id"`
	// Jobs is the number of phase-A operations issued THROUGH this node
	// (the node the client connected to; the ring may have forwarded the
	// work elsewhere).
	Jobs       int64   `json:"jobs"`
	Throughput float64 `json:"throughput_jobs_per_sec"`
	// Stats is the node's full /stats snapshot at the end of the run
	// (cluster section included), taken before any node is killed.
	Stats serve.Stats `json:"server_stats"`
}

// clusterXLReport is the remote-region-dispatch phase: one partitioned XL
// job on a node with no local region executors, so every region must run
// on a peer.
type clusterXLReport struct {
	Sinks             int     `json:"sinks"`
	PartitionMaxSinks int     `json:"partition_max_sinks"`
	DurationMS        float64 `json:"duration_ms"`
	RegionsDispatched int64   `json:"regions_dispatched"`
	RegionsServed     int64   `json:"regions_served_by_peers"`
}

// clusterKillReport is the kill-one-node recovery phase.
type clusterKillReport struct {
	KilledNode string `json:"killed_node"`
	Jobs       int64  `json:"jobs"`
	// Resubmitted counts operations that hit the killed node's vanishing
	// listener and were replayed against a survivor.
	Resubmitted int64 `json:"resubmitted"`
	// Lost is operations that never completed; the contract is ZERO.
	Lost int64 `json:"lost"`
	// UnstructuredErrors counts survivor-side failures that were not
	// structured API errors; the contract is ZERO.
	UnstructuredErrors int64 `json:"unstructured_errors"`
}

// clusterChaosReport is the cluster chaos section (benchgen -load -cluster
// N -chaos ...): one faulty peer among healthy ones.
type clusterChaosReport struct {
	FaultSpec string   `json:"fault_spec"`
	FaultSeed int64    `json:"fault_seed"`
	FaultNode string   `json:"fault_node"`
	Ops       chaosOps `json:"ops"`
	ErrorRate float64  `json:"error_rate"`
	// MaxErrorRate bounds the cluster-wide error rate: only one of N
	// nodes is faulty, so the bound is the single-node chaos bound scaled
	// by the faulty node's traffic share, with slack.
	MaxErrorRate float64 `json:"max_error_rate"`
}

// clusterReport is the machine-readable BENCH_cluster.json.
type clusterReport struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Nodes       int `json:"nodes"`
	Jobs        int `json:"jobs"`
	Distinct    int `json:"distinct_requests"`
	Concurrency int `json:"client_concurrency"`

	WallMS              float64      `json:"wall_ms"`
	AggregateThroughput float64      `json:"aggregate_throughput_jobs_per_sec"`
	Latency             latencyStats `json:"latency"`

	// Forwarded/ForwardedIn are summed over the per-node cluster stats and
	// must match: every forward sent was received exactly once.
	Forwarded       int64 `json:"forwarded"`
	ForwardedIn     int64 `json:"forwarded_in"`
	ForwardFallback int64 `json:"forward_fallback_local"`

	PerNode []clusterNodeReport `json:"per_node"`
	XL      *clusterXLReport    `json:"xl_dispatch,omitempty"`
	Kill    *clusterKillReport  `json:"kill_one_node,omitempty"`
	Chaos   *clusterChaosReport `json:"chaos,omitempty"`

	// LeakedGoroutines is the post-shutdown goroutine delta across the
	// whole cluster (must be 0).
	LeakedGoroutines int      `json:"leaked_goroutines"`
	Notes            []string `json:"notes"`
}

// clusterBenchNode is one in-process daemon of the benchmark cluster.
type clusterBenchNode struct {
	id     string
	base   string
	srv    *serve.Server
	hs     *http.Server
	killed bool
}

func (n *clusterBenchNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.hs.Close()
	n.srv.Close()
}

// runCluster boots an in-process N-node cluster (real loopback listeners,
// consistent-hash routing, region dispatch) and measures three phases:
// (A) routed load — conc clients spread over all nodes replaying a shared
// distinct-request pool; (B) one partitioned XL job on a node with zero
// local region executors, forcing remote dispatch; (C)
// kill-one-node — traffic continues across the survivors while a node
// dies, and every operation must still complete. With a chaos spec, phase
// A instead soaks for -duration with the fault schedule armed on the LAST
// node only, and phases B/C are skipped — the report then carries the
// cluster chaos section for the nightly gate.
func runCluster(path string, nodeCount, jobs, conc, distinct int, chaosSpec string, chaosSeed int64, duration time.Duration) error {
	if nodeCount < 2 {
		return fmt.Errorf("cluster: need at least 2 nodes, got %d", nodeCount)
	}
	if conc <= 0 {
		conc = 8
	}
	if jobs <= 0 {
		jobs = 60 * nodeCount
	}
	if distinct <= 0 || distinct > jobs {
		distinct = 20
	}
	chaosMode := chaosSpec != ""
	if chaosMode && chaosSpec == "default" {
		chaosSpec = defaultChaosSpec
	}
	before := runtime.NumGoroutine()

	// Listeners first, so the full peer URL set exists before any node
	// boots.
	lns := make([]net.Listener, nodeCount)
	peers := make([]clusterd.Peer, nodeCount)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		peers[i] = clusterd.Peer{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	nodes := make([]*clusterBenchNode, nodeCount)
	for i := range nodes {
		cfg := serve.Config{
			MaxRunning: conc,
			MaxQueued:  jobs + conc,
			Metrics:    obs.NewRegistry(),
			Cluster: &serve.ClusterConfig{
				NodeID: peers[i].ID, Peers: peers, Secret: "bench-secret",
				ProbeInterval: 250 * time.Millisecond,
				Cooldown:      time.Second,
			},
		}
		if i == 0 && !chaosMode {
			// Phase B runs its XL job here: with no local executors every
			// region must execute on a peer.
			cfg.Cluster.LocalExecutors = -1
		}
		if chaosMode && i == nodeCount-1 {
			reg, err := fault.Parse(chaosSpec, chaosSeed)
			if err != nil {
				return err
			}
			cfg.Faults = reg
			cfg.JobTimeout = 5 * time.Second
			cfg.WatchdogGrace = 300 * time.Millisecond
		}
		srv := serve.NewServer(cfg)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		nodes[i] = &clusterBenchNode{id: peers[i].ID, base: peers[i].URL, srv: srv, hs: hs}
	}
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()

	// The shared request pool: same shape as the single-node BENCH_serve
	// baseline, so the aggregate-throughput ratio compares like with like
	// per request, at the cluster's steady-state hit ratio.
	designs := []string{"C1", "C2", "C3", "C4", "C5"}
	pool := make([]*serve.Request, distinct)
	for i := range pool {
		pool[i] = &serve.Request{
			Design: designs[i%len(designs)],
			Seed:   int64(1 + i/len(designs)),
			Options: serve.OptionsSpec{
				FanoutThreshold: []int{0, 150, 600}[i%3],
			},
		}
	}

	rep := clusterReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nodes: nodeCount, Jobs: jobs, Distinct: distinct, Concurrency: conc,
	}
	perNodeJobs := make([]atomic.Int64, nodeCount)

	// ----- Phase A: routed load (or chaos soak). -----
	var samples []float64
	var sampleMu sync.Mutex
	start := time.Now()
	if chaosMode {
		var ops chaosOps
		count := func(p *int64) { atomic.AddInt64(p, 1) }
		deadline := time.Now().Add(duration)
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				home := w % nodeCount
				client := &serve.Client{Base: nodes[home].base, RetryBackoff: 5 * time.Millisecond}
				for n := 0; time.Now().Before(deadline); n++ {
					req := *pool[(w+n)%len(pool)]
					req.TimeoutMS = 2000
					req.IdempotencyKey = fmt.Sprintf("cluster-chaos-%d-%d", w, n)
					info, err := client.Synthesize(context.Background(), &req)
					perNodeJobs[home].Add(1)
					count(&ops.Total)
					classify(&ops, info, err, count)
				}
			}(w)
		}
		wg.Wait()
		failures := ops.Total - ops.Done
		rep.Chaos = &clusterChaosReport{
			FaultSpec: chaosSpec, FaultSeed: chaosSeed,
			FaultNode: nodes[nodeCount-1].id,
			Ops:       ops,
			ErrorRate: float64(failures) / float64(max64(ops.Total, 1)),
			// One faulty node of N sees ~1/N of the traffic directly plus
			// the forwards it owns; scale the single-node 0.5 bound by that
			// share with slack. Routed hits answered by healthy nodes keep
			// the cluster-wide rate well below the single-node rate.
			MaxErrorRate: 0.5,
		}
		rep.Jobs = int(ops.Total)
	} else {
		errs := make([]error, jobs)
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				home := w % nodeCount
				client := serve.NewClient(nodes[home].base)
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= jobs {
						return
					}
					t0 := time.Now()
					info, err := client.Synthesize(context.Background(), pool[i%distinct])
					if err == nil && info.State != serve.StateDone {
						err = fmt.Errorf("job %s ended %s (%s)", info.ID, info.State, info.Error)
					}
					if err != nil {
						errs[i] = err
						continue
					}
					perNodeJobs[home].Add(1)
					sampleMu.Lock()
					samples = append(samples, float64(time.Since(t0))/float64(time.Millisecond))
					sampleMu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("cluster load job %d: %w", i, err)
			}
		}
	}
	wall := time.Since(start)
	rep.WallMS = float64(wall) / float64(time.Millisecond)
	rep.AggregateThroughput = float64(rep.Jobs) / wall.Seconds()
	rep.Latency = percentiles(samples)

	// ----- Phase B: remote region dispatch (skipped under chaos). -----
	if !chaosMode {
		xlSinks, xlPart := 100000, 10000
		t0 := time.Now()
		client := serve.NewClient(nodes[0].base)
		// Async submission pins the job to n1 (sync requests would be
		// forwarded to the key's ring owner); n1 has no local executors, so
		// the regions land on peers.
		info, err := client.SubmitAsync(context.Background(), serve.KindSynthesize, &serve.Request{
			XLSinks: xlSinks,
			Seed:    1,
			Options: serve.OptionsSpec{PartitionMaxSinks: xlPart},
		})
		if err != nil {
			return fmt.Errorf("cluster xl submit: %w", err)
		}
		for {
			time.Sleep(100 * time.Millisecond)
			if info, err = client.Job(context.Background(), info.ID); err != nil {
				return fmt.Errorf("cluster xl poll: %w", err)
			}
			if info.State == serve.StateDone || info.State == serve.StateFailed || info.State == serve.StateCancelled {
				break
			}
		}
		if info.State != serve.StateDone {
			return fmt.Errorf("cluster xl job ended %s (%s)", info.State, info.Error)
		}
		st0, err := client.Stats(context.Background())
		if err != nil {
			return err
		}
		xl := &clusterXLReport{
			Sinks: xlSinks, PartitionMaxSinks: xlPart,
			DurationMS: float64(time.Since(t0)) / float64(time.Millisecond),
		}
		if cs := st0.Cluster; cs != nil {
			xl.RegionsDispatched = cs.RegionsDispatched
		}
		for _, n := range nodes[1:] {
			st, err := serve.NewClient(n.base).Stats(context.Background())
			if err != nil {
				return err
			}
			if st.Cluster != nil {
				xl.RegionsServed += st.Cluster.RegionsServed
			}
		}
		rep.XL = xl
		if xl.RegionsDispatched == 0 {
			return fmt.Errorf("cluster xl: no region was dispatched (remote execution never engaged)")
		}
	}

	// Snapshot per-node stats before anything is killed.
	for i, n := range nodes {
		st, err := serve.NewClient(n.base).Stats(context.Background())
		if err != nil {
			return fmt.Errorf("stats from %s: %w", n.id, err)
		}
		nr := clusterNodeReport{
			NodeID: n.id, Jobs: perNodeJobs[i].Load(),
			Throughput: float64(perNodeJobs[i].Load()) / wall.Seconds(),
			Stats:      *st,
		}
		rep.PerNode = append(rep.PerNode, nr)
		if cs := st.Cluster; cs != nil {
			rep.Forwarded += cs.Forwarded
			rep.ForwardedIn += cs.ForwardedIn
			rep.ForwardFallback += cs.ForwardFallback
		}
	}
	// Every successfully-relayed forward was received exactly once. Under
	// chaos a forward can be delivered and then fail at the origin (hang →
	// timeout → 5xx → local fallback), so receipts may exceed successful
	// sends; without faults the two must match exactly.
	if rep.ForwardedIn < rep.Forwarded || (!chaosMode && rep.Forwarded != rep.ForwardedIn) {
		return fmt.Errorf("cluster accounting: %d forwards sent vs %d received", rep.Forwarded, rep.ForwardedIn)
	}

	// ----- Phase C: kill one node under traffic (skipped under chaos). -----
	if !chaosMode {
		killIdx := nodeCount - 1
		kill := &clusterKillReport{KilledNode: nodes[killIdx].id}
		killJobs := 10 * nodeCount
		var resubmitted, lost, unstructured atomic.Int64
		var killOnce sync.Once
		var wg sync.WaitGroup
		var done atomic.Int64
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := w; n < killJobs; n += conc {
					// Halfway through, one client kills the node abruptly
					// while the rest keep submitting.
					if n >= killJobs/2 {
						killOnce.Do(func() { nodes[killIdx].kill() })
					}
					req := *pool[n%distinct]
					req.Seed += 1000 // fresh keys: these must execute, not hit caches
					target := nodes[n%nodeCount]
					info, err := serve.NewClient(target.base).Synthesize(context.Background(), &req)
					if err != nil {
						var ue *url.Error
						if errors.As(err, &ue) {
							// The killed node's listener: replay on a survivor.
							resubmitted.Add(1)
							surv := nodes[(n+1)%nodeCount]
							if surv.killed {
								surv = nodes[(n+2)%nodeCount]
							}
							info, err = serve.NewClient(surv.base).Synthesize(context.Background(), &req)
						}
					}
					switch {
					case err != nil:
						var apiErr interface{ HTTPStatus() int }
						if !errors.As(err, &apiErr) {
							unstructured.Add(1)
						}
						lost.Add(1)
					case info.State != serve.StateDone:
						lost.Add(1)
					default:
						done.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		kill.Jobs = int64(killJobs)
		kill.Resubmitted = resubmitted.Load()
		kill.Lost = lost.Load()
		kill.UnstructuredErrors = unstructured.Load()
		rep.Kill = kill
	}

	// Shut the whole cluster down and check nothing leaked.
	for _, n := range nodes {
		n.kill()
	}
	settle := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(settle) {
		time.Sleep(20 * time.Millisecond)
	}
	if leaked := runtime.NumGoroutine() - before; leaked > 0 {
		rep.LeakedGoroutines = leaked
	}

	rep.Notes = []string{
		"in-process N-node dsctsd cluster over loopback: consistent-hash request routing with forward-on-miss, remote region dispatch (POST /internal/region) bounded by a per-region timeout, and /readyz-fed circuit breakers",
		"phase A replays the BENCH_serve request pool through all nodes; repeated invocations route to each key's single ring owner, so the aggregate throughput reflects the cluster-wide shared cache at steady state (the single-node baseline re-misses the same keys per node)",
		"phase B pins remote execution: the submitting node runs zero regions itself, yet the stitched result is bit-identical to a local run (serve cluster test suite)",
		"phase C kills one node mid-traffic: clients replay refused connections against survivors, and forwards to the dead node fall back to local execution — zero lost jobs is the contract",
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("cluster report -> %s\n", path)
	fmt.Printf("  %d nodes, %d jobs x%d clients: %.1f jobs/s aggregate, %d forwarded, %d fallback\n",
		nodeCount, rep.Jobs, conc, rep.AggregateThroughput, rep.Forwarded, rep.ForwardFallback)
	if rep.XL != nil {
		fmt.Printf("  xl dispatch: %d regions dispatched, %d served by peers\n",
			rep.XL.RegionsDispatched, rep.XL.RegionsServed)
	}
	if rep.Kill != nil {
		fmt.Printf("  kill %s: %d jobs, %d resubmitted, %d lost, %d unstructured\n",
			rep.Kill.KilledNode, rep.Kill.Jobs, rep.Kill.Resubmitted, rep.Kill.Lost, rep.Kill.UnstructuredErrors)
	}
	if rep.Chaos != nil {
		fmt.Printf("  chaos on %s: %d ops, error rate %.3f <= %.2f\n",
			rep.Chaos.FaultNode, rep.Chaos.Ops.Total, rep.Chaos.ErrorRate, rep.Chaos.MaxErrorRate)
	}

	var violations []string
	if rep.Kill != nil && (rep.Kill.Lost != 0 || rep.Kill.UnstructuredErrors != 0) {
		violations = append(violations, fmt.Sprintf("kill-one-node lost %d jobs (%d unstructured)",
			rep.Kill.Lost, rep.Kill.UnstructuredErrors))
	}
	if rep.Chaos != nil {
		if rep.Chaos.Ops.Total == 0 {
			violations = append(violations, "chaos soak issued no operations")
		}
		if rep.Chaos.Ops.Unstructured != 0 {
			violations = append(violations, fmt.Sprintf("%d unstructured failures under chaos", rep.Chaos.Ops.Unstructured))
		}
		if rep.Chaos.ErrorRate > rep.Chaos.MaxErrorRate {
			violations = append(violations, fmt.Sprintf("cluster error rate %.3f exceeds %.2f", rep.Chaos.ErrorRate, rep.Chaos.MaxErrorRate))
		}
	}
	if rep.LeakedGoroutines != 0 {
		violations = append(violations, fmt.Sprintf("%d goroutines leaked past cluster shutdown", rep.LeakedGoroutines))
	}
	if len(violations) > 0 {
		return fmt.Errorf("cluster contract violated: %s", joinViolations(violations))
	}
	return nil
}

func joinViolations(v []string) string {
	out := ""
	for i, s := range v {
		if i > 0 {
			out += "; "
		}
		out += s
	}
	return out
}
