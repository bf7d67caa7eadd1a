package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"dscts/internal/fault"
	"dscts/internal/obs"
	"dscts/internal/serve"
	"dscts/internal/store"
)

// expectViolation requires one of a contract's violations to contain want.
func expectViolation(t *testing.T, name, want string, violations []string) {
	t.Helper()
	for _, v := range violations {
		if strings.Contains(v, want) {
			return
		}
	}
	t.Errorf("%s: violations %q, want one containing %q", name, violations, want)
}

// servedStats runs one fault-injected job on an in-process daemon and
// returns its quiescent /stats snapshot with the matching /metrics scrape,
// so a chaos report built on them passes the metrics check honestly.
func servedStats(t *testing.T) (serve.Stats, map[string]float64) {
	t.Helper()
	reg, err := fault.Parse("delay@core.insert:nth=1:1ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{MaxRunning: 1, Faults: reg, Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	client := serve.NewClient(ts.URL)
	if _, err := client.Synthesize(context.Background(), &serve.Request{Design: "C1"}); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := scrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return *st, samples
}

func TestChaosContract(t *testing.T) {
	st, samples := servedStats(t)
	healthy := func() *chaosReport {
		m := make(map[string]float64, len(samples))
		for k, v := range samples {
			m[k] = v
		}
		return &chaosReport{
			DurationMS:     10_000,
			Ops:            chaosOps{Total: 40, Done: 30, Timeouts: 10},
			ErrorRate:      0.25,
			InjectedFaults: 1,
			Stats:          st,
			Metrics:        m,
		}
	}
	if v := chaosContract(healthy()); len(v) != 0 {
		t.Fatalf("healthy soak: %q", v)
	}
	restarted := healthy()
	restarted.Restart = true
	restarted.Store = &store.Stats{WarmResults: 3}
	if v := chaosContract(restarted); len(v) != 0 {
		t.Fatalf("healthy restart: %q", v)
	}

	for _, tc := range []struct {
		name, want string
		mutate     func(r *chaosReport)
	}{
		{"nothing done", "no operation", func(r *chaosReport) { r.Ops.Done = 0 }},
		{"below 1 op/s", "op/s", func(r *chaosReport) { r.DurationMS = 100_000 }},
		{"unstructured failure", "unstructured", func(r *chaosReport) { r.Ops.Unstructured = 1 }},
		{"error rate", "error rate", func(r *chaosReport) { r.ErrorRate = 0.6 }},
		{"leaked goroutines", "leaked goroutines", func(r *chaosReport) { r.LeakedGoroutines = 2 }},
		{"worker not reclaimed", "worker budget", func(r *chaosReport) { r.Stats.Jobs.AbandonedWorkers = 1 }},
		{"no fault fired", "never fired", func(r *chaosReport) { r.InjectedFaults = 0 }},
		{"metrics drift", "dscts_cache_misses_total", func(r *chaosReport) { r.Metrics["dscts_cache_misses_total"]++ }},
		{"cold restart", "warm-loaded no result", func(r *chaosReport) {
			r.Restart, r.Store = true, &store.Stats{}
		}},
		{"write lost", "lost data", func(r *chaosReport) {
			r.Restart, r.Store = true, &store.Stats{WarmResults: 3, Dropped: 1}
		}},
	} {
		r := healthy()
		tc.mutate(r)
		expectViolation(t, tc.name, tc.want, chaosContract(r))
	}
}

// healthyCluster is a passing plain cluster report: three nodes that
// forwarded as much as they received, a 16-region XL job run on peers, a
// kill-one-node phase that lost nothing, and no leaks.
func healthyCluster() *clusterReport {
	node := func(id string, dispatched, served int64) clusterNodeReport {
		return clusterNodeReport{NodeID: id, Jobs: 60, Stats: serve.Stats{Cluster: &serve.ClusterStats{
			Forwarded: 5, ForwardedIn: 5, RegionsDispatched: dispatched, RegionsServed: served,
		}}}
	}
	return &clusterReport{
		Nodes: 3, Jobs: 180, Forwarded: 15, ForwardedIn: 15,
		PerNode: []clusterNodeReport{node("n1", 16, 0), node("n2", 0, 8), node("n3", 0, 8)},
		XL:      &clusterXLReport{RegionsDispatched: 16, RegionsServed: 16},
		Kill:    &clusterKillReport{KilledNode: "n3", Jobs: 30},
	}
}

// healthyClusterChaos is a passing cluster chaos report: no XL or kill
// phase, and receipts may exceed sends under faults.
func healthyClusterChaos() *clusterReport {
	r := healthyCluster()
	r.XL, r.Kill = nil, nil
	r.ForwardedIn = 16
	r.PerNode[1].Stats.Cluster.RegionsServed = 9
	r.Chaos = &clusterChaosReport{Ops: chaosOps{Total: 100, Done: 80, Timeouts: 20}, ErrorRate: 0.2}
	return r
}

func TestClusterContract(t *testing.T) {
	if v := clusterContract(healthyCluster()); len(v) != 0 {
		t.Fatalf("healthy report: %q", v)
	}
	if v := clusterContract(healthyClusterChaos()); len(v) != 0 {
		t.Fatalf("healthy chaos report: %q", v)
	}
	for _, tc := range []struct {
		name, want string
		base       func() *clusterReport
		mutate     func(r *clusterReport)
	}{
		{"no dispatched regions", "zero regions", healthyCluster, func(r *clusterReport) { r.XL.RegionsDispatched = 0 }},
		{"lost jobs", "lost 1 jobs", healthyCluster, func(r *clusterReport) { r.Kill.Lost = 1 }},
		{"forwards unbalanced", "forward accounting", healthyCluster, func(r *clusterReport) { r.ForwardedIn = 14 }},
		{"leaked goroutines", "goroutines leaked", healthyCluster, func(r *clusterReport) { r.LeakedGoroutines = 2 }},
		{"no forwards", "zero forwards", healthyCluster, func(r *clusterReport) { r.Forwarded, r.ForwardedIn = 0, 0 }},
		{"idle node", "n2 served zero phase-A jobs", healthyCluster, func(r *clusterReport) { r.PerNode[1].Jobs = 0 }},
		{"node without cluster section", "n3 has no cluster stats", healthyCluster, func(r *clusterReport) { r.PerNode[2].Stats.Cluster = nil }},
		{"missing node section", "per-node sections", healthyCluster, func(r *clusterReport) { r.PerNode = r.PerNode[:2] }},
		{"regions unbalanced", "region accounting", healthyCluster, func(r *clusterReport) { r.PerNode[1].Stats.Cluster.RegionsServed = 7 }},
		{"no kill phase", "kill-one-node phase did not run", healthyCluster, func(r *clusterReport) { r.Kill = nil }},
		{"unstructured kill failure", "unstructured", healthyCluster, func(r *clusterReport) { r.Kill.UnstructuredErrors = 1 }},
		{"chaos: forwards lost", "forward accounting", healthyClusterChaos, func(r *clusterReport) { r.ForwardedIn = 14 }},
		{"chaos: regions lost", "region accounting", healthyClusterChaos, func(r *clusterReport) { r.PerNode[1].Stats.Cluster.RegionsServed = 7 }},
		{"chaos: nothing done", "no operation", healthyClusterChaos, func(r *clusterReport) { r.Chaos.Ops.Done = 0 }},
		{"chaos: unstructured", "unstructured", healthyClusterChaos, func(r *clusterReport) { r.Chaos.Ops.Unstructured = 1 }},
		{"chaos: error rate", "error rate", healthyClusterChaos, func(r *clusterReport) { r.Chaos.ErrorRate = 0.6 }},
	} {
		r := tc.base()
		tc.mutate(r)
		expectViolation(t, tc.name, tc.want, clusterContract(r))
	}
}

func TestECOContract(t *testing.T) {
	healthy := func() *ecoReport {
		row := func(design string, pct, speedup float64) ecoRow {
			return ecoRow{Design: design, Sinks: 1000, Mode: "mono", DeltaPct: pct,
				DirtyScopes: 2, TotalScopes: 40, FullMS: 60, ECOMS: 60 / speedup, Speedup: speedup}
		}
		return &ecoReport{Workers: 1, Rows: []ecoRow{row("C3", 0.1, 12), row("C3", 1, 6), row("C2", 1, 3)}}
	}
	if v := ecoContract(healthy()); len(v) != 0 {
		t.Fatalf("healthy report: %q", v)
	}
	noC3 := healthy()
	noC3.Rows = noC3.Rows[2:]
	if v := ecoContract(noC3); len(v) != 0 {
		t.Fatalf("a run without C3 at 1%% is not speedup-gated: %q", v)
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(r *ecoReport)
	}{
		{"slow C3 at 1%", "best C3 speedup", func(r *ecoReport) { r.Rows[1].Speedup = 4.9 }},
		{"no rows", "report empty", func(r *ecoReport) { r.Rows = nil }},
		{"no workers", "report empty", func(r *ecoReport) { r.Workers = 0 }},
		{"zero full time", "implausible", func(r *ecoReport) { r.Rows[0].FullMS = 0 }},
		{"zero eco time", "implausible", func(r *ecoReport) { r.Rows[0].ECOMS = 0 }},
		{"zero sinks", "implausible", func(r *ecoReport) { r.Rows[2].Sinks = 0 }},
		{"empty dirty set", "dirty set", func(r *ecoReport) { r.Rows[0].DirtyScopes = 0 }},
		{"dirty beyond total", "dirty set", func(r *ecoReport) { r.Rows[0].DirtyScopes = 41 }},
	} {
		r := healthy()
		tc.mutate(r)
		expectViolation(t, tc.name, tc.want, ecoContract(r))
	}
}
