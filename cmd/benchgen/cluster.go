package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dscts/internal/clusterd"
	"dscts/internal/fault"
	"dscts/internal/obs"
	"dscts/internal/par"
	"dscts/internal/serve"
)

// clusterNodeReport is one node's share of the routed-load phase.
type clusterNodeReport struct {
	NodeID string `json:"node_id"`
	// Jobs is the number of phase-A operations issued THROUGH this node
	// (the node the client connected to; the ring may have forwarded the
	// work elsewhere).
	Jobs int64 `json:"jobs"`
	// Stats is the node's full /stats snapshot at the end of the run
	// (cluster section included), taken before any node is killed.
	Stats serve.Stats `json:"server_stats"`
}

// clusterXLReport is the remote-region-dispatch phase: one partitioned XL
// job on a node with no local region executors, so every region must run
// on a peer.
type clusterXLReport struct {
	Sinks             int   `json:"sinks"`
	PartitionMaxSinks int   `json:"partition_max_sinks"`
	RegionsDispatched int64 `json:"regions_dispatched"`
	RegionsServed     int64 `json:"regions_served_by_peers"`
}

// clusterKillReport is the kill-one-node recovery phase.
type clusterKillReport struct {
	KilledNode string `json:"killed_node"`
	Jobs       int64  `json:"jobs"`
	// Resubmitted counts operations that hit the killed node's vanishing
	// listener and were replayed against a survivor.
	Resubmitted int64 `json:"resubmitted"`
	// Lost is operations that never completed.
	Lost int64 `json:"lost"`
	// UnstructuredErrors counts survivor-side failures that were not
	// structured API errors.
	UnstructuredErrors int64 `json:"unstructured_errors"`
}

// clusterChaosReport is the cluster chaos section (benchgen -load -cluster
// N -chaos ...): one faulty peer among healthy ones. The single-node error
// bound holds cluster-wide: routed hits answered by healthy nodes keep the
// cluster's rate below a single faulty node's.
type clusterChaosReport struct {
	FaultSpec string   `json:"fault_spec"`
	FaultSeed int64    `json:"fault_seed"`
	FaultNode string   `json:"fault_node"`
	Ops       chaosOps `json:"ops"`
	ErrorRate float64  `json:"error_rate"`
}

// clusterReport is the machine-readable BENCH_cluster.json.
type clusterReport struct {
	header
	Nodes       int `json:"nodes"`
	Jobs        int `json:"jobs"`
	Distinct    int `json:"distinct_requests"`
	Concurrency int `json:"client_concurrency"`

	// Forwarded/ForwardedIn/ForwardFallback sum the per-node cluster
	// stats.
	Forwarded       int64 `json:"forwarded"`
	ForwardedIn     int64 `json:"forwarded_in"`
	ForwardFallback int64 `json:"forward_fallback_local"`

	PerNode []clusterNodeReport `json:"per_node"`
	XL      *clusterXLReport    `json:"xl_dispatch,omitempty"`
	Kill    *clusterKillReport  `json:"kill_one_node,omitempty"`
	Chaos   *clusterChaosReport `json:"chaos,omitempty"`

	// LeakedGoroutines is the post-shutdown goroutine delta across the
	// whole cluster.
	LeakedGoroutines int `json:"leaked_goroutines"`
}

// clusterContract is the distributed-mode contract of a cluster report:
// routing engaged on every node, every forward and every dispatched region
// was received, and nothing leaked. A plain run must also have executed
// the XL job's regions on peers and lost no job when a node died; a chaos
// run must keep the soak's operation contract with one faulty node.
func clusterContract(r *clusterReport) []string {
	v := []string{}
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	chaos := r.Chaos != nil
	if len(r.PerNode) != r.Nodes {
		bad("%d per-node sections for %d nodes", len(r.PerNode), r.Nodes)
	}
	if r.Forwarded == 0 {
		bad("zero forwards: consistent-hash routing never engaged")
	}
	// Every successfully relayed forward was received exactly once. Under
	// chaos a forward can be delivered and then fail at the origin (hang,
	// timeout, 5xx, local fallback), so receipts may exceed sends.
	if r.ForwardedIn < r.Forwarded || (!chaos && r.ForwardedIn != r.Forwarded) {
		bad("forward accounting: %d forwards sent vs %d received", r.Forwarded, r.ForwardedIn)
	}
	var served, dispatched int64
	for _, n := range r.PerNode {
		if n.Jobs == 0 {
			bad("node %s served zero phase-A jobs", n.NodeID)
		}
		if n.Stats.Cluster == nil {
			bad("node %s has no cluster stats section", n.NodeID)
			continue
		}
		served += n.Stats.Cluster.RegionsServed
		dispatched += n.Stats.Cluster.RegionsDispatched
	}
	// A peer can execute a dispatched region and still have its reply lost
	// to a fault, so served may exceed dispatched under chaos.
	if served < dispatched || (!chaos && served != dispatched) {
		bad("region accounting: %d served vs %d dispatched", served, dispatched)
	}
	if chaos {
		v = append(v, opsViolations(r.Chaos.Ops, r.Chaos.ErrorRate)...)
	} else {
		if r.XL == nil || r.XL.RegionsDispatched == 0 {
			bad("xl job dispatched zero regions to peers")
		}
		switch {
		case r.Kill == nil || r.Kill.Jobs == 0:
			bad("kill-one-node phase did not run")
		case r.Kill.Lost != 0 || r.Kill.UnstructuredErrors != 0:
			bad("kill-one-node lost %d jobs (%d unstructured)", r.Kill.Lost, r.Kill.UnstructuredErrors)
		}
	}
	if r.LeakedGoroutines != 0 {
		bad("%d goroutines leaked past cluster shutdown", r.LeakedGoroutines)
	}
	return v
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
// consistent-hash routing, region dispatch) and runs three phases:
// (A) routed load — clientConc jobs at a time, job i through node i mod N,
// replaying a shared distinct-request pool until one fails; (B) one
// partitioned XL job on a node with zero local region executors, forcing
// remote dispatch; (C) kill-one-node — traffic continues across the
// survivors while a node dies, and every operation must still complete. With a chaos spec, phase A instead soaks
// for the duration with the fault schedule armed on the LAST node only,
// and phases B/C are skipped. It writes BENCH_cluster.json and fails if the
// report breaks clusterContract.
func runCluster(path string, nodeCount int, chaosSpec string, chaosSeed int64, duration time.Duration) error {
	if nodeCount < 2 {
		return fmt.Errorf("cluster: need at least 2 nodes, got %d", nodeCount)
	}
	const distinct = 20
	conc, jobs := clientConc, 60*nodeCount
	chaosMode := chaosSpec != ""
	if chaosSpec == "default" {
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

	// The shared request pool: the five Table II designs crossed with
	// option variants that change the result identity.
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
		header: hostHeader(),
		Nodes:  nodeCount, Jobs: jobs, Distinct: distinct, Concurrency: conc,
	}
	perNodeJobs := make([]atomic.Int64, nodeCount)

	// ----- Phase A: routed load (or chaos soak). -----
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
		rep.Chaos = &clusterChaosReport{
			FaultSpec: chaosSpec, FaultSeed: chaosSeed,
			FaultNode: nodes[nodeCount-1].id,
			Ops:       ops,
			ErrorRate: float64(ops.Total-ops.Done) / float64(max(ops.Total, 1)),
		}
		rep.Jobs = int(ops.Total)
	} else {
		clients := make([]*serve.Client, nodeCount)
		for i, n := range nodes {
			clients[i] = serve.NewClient(n.base)
		}
		err := par.Do(context.Background(), conc, jobs, func(i int) error {
			home := i % nodeCount
			info, err := clients[home].Synthesize(context.Background(), pool[i%distinct])
			if err == nil && info.State != serve.StateDone {
				err = fmt.Errorf("job %s ended %s (%s)", info.ID, info.State, info.Error)
			}
			if err != nil {
				return fmt.Errorf("cluster load job %d: %w", i, err)
			}
			perNodeJobs[home].Add(1)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// ----- Phase B: remote region dispatch (skipped under chaos). -----
	if !chaosMode {
		xl := &clusterXLReport{Sinks: 100000, PartitionMaxSinks: 10000}
		client := serve.NewClient(nodes[0].base)
		// Async submission pins the job to n1 (sync requests would be
		// forwarded to the key's ring owner); n1 has no local executors, so
		// the regions land on peers.
		info, err := client.SubmitAsync(context.Background(), serve.KindSynthesize, &serve.Request{
			XLSinks: xl.Sinks,
			Seed:    1,
			Options: serve.OptionsSpec{PartitionMaxSinks: xl.PartitionMaxSinks},
		})
		if err != nil {
			return fmt.Errorf("cluster xl submit: %w", err)
		}
		for info.State != serve.StateDone && info.State != serve.StateFailed && info.State != serve.StateCancelled {
			time.Sleep(100 * time.Millisecond)
			if info, err = client.Job(context.Background(), info.ID); err != nil {
				return fmt.Errorf("cluster xl poll: %w", err)
			}
		}
		if info.State != serve.StateDone {
			return fmt.Errorf("cluster xl job ended %s (%s)", info.State, info.Error)
		}
		for i, n := range nodes {
			st, err := serve.NewClient(n.base).Stats(context.Background())
			if err != nil {
				return err
			}
			switch cs := st.Cluster; {
			case cs == nil:
			case i == 0:
				xl.RegionsDispatched = cs.RegionsDispatched
			default:
				xl.RegionsServed += cs.RegionsServed
			}
		}
		rep.XL = xl
	}

	// Snapshot per-node stats before anything is killed.
	for i, n := range nodes {
		st, err := serve.NewClient(n.base).Stats(context.Background())
		if err != nil {
			return fmt.Errorf("stats from %s: %w", n.id, err)
		}
		rep.PerNode = append(rep.PerNode, clusterNodeReport{NodeID: n.id, Jobs: perNodeJobs[i].Load(), Stats: *st})
		if cs := st.Cluster; cs != nil {
			rep.Forwarded += cs.Forwarded
			rep.ForwardedIn += cs.ForwardedIn
			rep.ForwardFallback += cs.ForwardFallback
		}
	}

	// ----- Phase C: kill one node under traffic (skipped under chaos). -----
	if !chaosMode {
		killIdx := nodeCount - 1
		killJobs := 10 * nodeCount
		var resubmitted, lost, unstructured atomic.Int64
		var killOnce sync.Once
		var wg sync.WaitGroup
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
					}
				}
			}(w)
		}
		wg.Wait()
		rep.Kill = &clusterKillReport{
			KilledNode: nodes[killIdx].id, Jobs: int64(killJobs),
			Resubmitted: resubmitted.Load(), Lost: lost.Load(),
			UnstructuredErrors: unstructured.Load(),
		}
	}

	// Shut the whole cluster down and check nothing leaked.
	for _, n := range nodes {
		n.kill()
	}
	rep.LeakedGoroutines = leakedSince(before)
	rep.Violations = clusterContract(&rep)

	fmt.Printf("  %d nodes, %d jobs x%d clients: %d forwarded, %d fallback\n",
		nodeCount, rep.Jobs, conc, rep.Forwarded, rep.ForwardFallback)
	if rep.XL != nil {
		fmt.Printf("  xl dispatch: %d regions dispatched, %d served by peers\n",
			rep.XL.RegionsDispatched, rep.XL.RegionsServed)
	}
	if rep.Kill != nil {
		fmt.Printf("  kill %s: %d jobs, %d resubmitted, %d lost, %d unstructured\n",
			rep.Kill.KilledNode, rep.Kill.Jobs, rep.Kill.Resubmitted, rep.Kill.Lost, rep.Kill.UnstructuredErrors)
	}
	if rep.Chaos != nil {
		fmt.Printf("  chaos on %s: %d ops, %d done, error rate %.3f\n",
			rep.Chaos.FaultNode, rep.Chaos.Ops.Total, rep.Chaos.Ops.Done, rep.Chaos.ErrorRate)
	}
	return writeReport(path, "cluster", &rep, rep.Violations)
}
