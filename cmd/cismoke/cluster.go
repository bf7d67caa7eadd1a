package main

import (
	"flag"
	"fmt"
)

// clusterStatsView mirrors the per-node cluster counter section of
// BENCH_cluster.json (serve.ClusterStats).
type clusterStatsView struct {
	Forwarded         int64 `json:"forwarded"`
	ForwardFallback   int64 `json:"forward_fallback_local"`
	ForwardedIn       int64 `json:"forwarded_in"`
	RegionsDispatched int64 `json:"regions_dispatched"`
	RegionsServed     int64 `json:"regions_served"`
}

// clusterView mirrors the BENCH_cluster.json fields the cluster gate
// asserts on (benchgen -load -cluster N).
type clusterView struct {
	Nodes               int     `json:"nodes"`
	Jobs                int     `json:"jobs"`
	AggregateThroughput float64 `json:"aggregate_throughput_jobs_per_sec"`
	Forwarded           int64   `json:"forwarded"`
	ForwardedIn         int64   `json:"forwarded_in"`
	PerNode             []struct {
		NodeID string `json:"node_id"`
		Jobs   int64  `json:"jobs"`
		Stats  struct {
			Cluster *clusterStatsView `json:"cluster"`
		} `json:"server_stats"`
	} `json:"per_node"`
	XL *struct {
		RegionsDispatched int64 `json:"regions_dispatched"`
		RegionsServed     int64 `json:"regions_served_by_peers"`
	} `json:"xl_dispatch"`
	Kill *struct {
		KilledNode         string `json:"killed_node"`
		Jobs               int64  `json:"jobs"`
		Resubmitted        int64  `json:"resubmitted"`
		Lost               int64  `json:"lost"`
		UnstructuredErrors int64  `json:"unstructured_errors"`
	} `json:"kill_one_node"`
	Chaos *struct {
		FaultSpec string `json:"fault_spec"`
		FaultNode string `json:"fault_node"`
		Ops       struct {
			Total        int64 `json:"total"`
			Done         int64 `json:"done"`
			Unstructured int64 `json:"unstructured"`
		} `json:"ops"`
		ErrorRate    float64 `json:"error_rate"`
		MaxErrorRate float64 `json:"max_error_rate"`
	} `json:"chaos"`
	LeakedGoroutines int `json:"leaked_goroutines"`
}

// cmdCluster gates the distributed-mode contract from BENCH_cluster.json:
// the cluster actually routed (forwards flowed and balanced), actually
// executed regions remotely, survived losing a node without losing work,
// and leaked nothing. It gates no throughput ratio: a ratio against another
// report compares different cache-hit mixes, not scale-out. A chaos-mode
// report (benchgen -load -cluster N -chaos ...) swaps the
// kill/XL assertions for the bounded-error-rate contract.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	minNodes := fs.Int("min-nodes", 3, "minimum cluster size the report must cover")
	fs.Parse(args)
	var r clusterView
	if err := decode(fs, "BENCH_cluster.json", &r); err != nil {
		return err
	}
	if r.Nodes < *minNodes {
		return fmt.Errorf("cluster of %d nodes, want >= %d", r.Nodes, *minNodes)
	}
	if len(r.PerNode) != r.Nodes {
		return fmt.Errorf("%d per-node sections for %d nodes", len(r.PerNode), r.Nodes)
	}
	if r.Jobs <= 0 || r.AggregateThroughput <= 0 {
		return fmt.Errorf("load implausible: %d jobs at %.2f jobs/s", r.Jobs, r.AggregateThroughput)
	}

	// Routing engaged and balanced: forwards flowed, every successful
	// relay was received, and no node sat idle.
	if r.Forwarded == 0 {
		return fmt.Errorf("zero forwards: consistent-hash routing never engaged")
	}
	if r.ForwardedIn < r.Forwarded || (r.Chaos == nil && r.Forwarded != r.ForwardedIn) {
		return fmt.Errorf("forward accounting broken: %d sent vs %d received", r.Forwarded, r.ForwardedIn)
	}
	var sumServed, sumDispatched int64
	for _, n := range r.PerNode {
		if n.Jobs == 0 {
			return fmt.Errorf("node %s served zero phase-A jobs: load was not spread", n.NodeID)
		}
		if n.Stats.Cluster == nil {
			return fmt.Errorf("node %s has no cluster stats section", n.NodeID)
		}
		sumServed += n.Stats.Cluster.RegionsServed
		sumDispatched += n.Stats.Cluster.RegionsDispatched
	}
	// A peer can execute a dispatched region and still have the RPC reply
	// lost to a fault, so served may exceed applied dispatches under
	// chaos; they match exactly on a healthy run.
	if sumServed < sumDispatched || (r.Chaos == nil && sumServed != sumDispatched) {
		return fmt.Errorf("region accounting broken: %d served vs %d dispatched", sumServed, sumDispatched)
	}

	if r.Chaos != nil {
		switch {
		case r.Chaos.Ops.Total == 0:
			return fmt.Errorf("chaos soak issued no operations")
		case r.Chaos.Ops.Done == 0:
			return fmt.Errorf("no operation succeeded under cluster chaos")
		case r.Chaos.Ops.Unstructured != 0:
			return fmt.Errorf("%d unstructured failures under cluster chaos", r.Chaos.Ops.Unstructured)
		case r.Chaos.MaxErrorRate <= 0 || r.Chaos.MaxErrorRate > 0.5:
			return fmt.Errorf("declared max_error_rate %.3f implausible", r.Chaos.MaxErrorRate)
		case r.Chaos.ErrorRate > r.Chaos.MaxErrorRate:
			return fmt.Errorf("cluster error rate %.3f exceeds the %.2f bound", r.Chaos.ErrorRate, r.Chaos.MaxErrorRate)
		}
	} else {
		// Remote region execution actually happened, and losing a node
		// lost no work.
		if r.XL == nil {
			return fmt.Errorf("no xl_dispatch section: remote region dispatch was not exercised")
		}
		if r.XL.RegionsDispatched == 0 {
			return fmt.Errorf("xl job dispatched zero regions to peers")
		}
		if r.Kill == nil || r.Kill.Jobs == 0 {
			return fmt.Errorf("no kill-one-node section: recovery was not exercised")
		}
		if r.Kill.Lost != 0 || r.Kill.UnstructuredErrors != 0 {
			return fmt.Errorf("kill-one-node lost %d jobs (%d unstructured) — the contract is zero",
				r.Kill.Lost, r.Kill.UnstructuredErrors)
		}
	}

	if r.LeakedGoroutines != 0 {
		return fmt.Errorf("%d goroutines leaked past cluster shutdown", r.LeakedGoroutines)
	}

	fmt.Printf("cluster gate: %d nodes, %d jobs at %.1f jobs/s", r.Nodes, r.Jobs, r.AggregateThroughput)
	fmt.Printf(", %d forwarded, %d regions remote", r.Forwarded, sumServed)
	if r.Kill != nil {
		fmt.Printf(", kill %s: %d resubmitted / 0 lost", r.Kill.KilledNode, r.Kill.Resubmitted)
	}
	if r.Chaos != nil {
		fmt.Printf(", chaos on %s: error rate %.3f <= %.2f", r.Chaos.FaultNode, r.Chaos.ErrorRate, r.Chaos.MaxErrorRate)
	}
	fmt.Println(", zero leaks")
	return nil
}
