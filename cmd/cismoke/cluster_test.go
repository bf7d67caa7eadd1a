package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// healthyCluster is a minimal passing BENCH_cluster.json: three nodes
// that forwarded as much as they received, a 16-region XL job run on
// peers, a kill-one-node phase that lost nothing, and no leaks.
func healthyCluster() map[string]any {
	node := func(id string, dispatched, served int) map[string]any {
		return map[string]any{
			"node_id": id, "jobs": 60,
			"server_stats": map[string]any{"cluster": map[string]any{
				"forwarded": 5, "forwarded_in": 5,
				"regions_dispatched": dispatched, "regions_served": served,
			}},
		}
	}
	return map[string]any{
		"nodes": 3, "jobs": 180, "aggregate_throughput_jobs_per_sec": 100.0,
		"forwarded": 15, "forwarded_in": 15,
		"per_node":          []any{node("n1", 16, 0), node("n2", 0, 8), node("n3", 0, 8)},
		"xl_dispatch":       map[string]any{"regions_dispatched": 16, "regions_served_by_peers": 16},
		"kill_one_node":     map[string]any{"killed_node": "n3", "jobs": 30, "lost": 0},
		"leaked_goroutines": 0,
	}
}

func writeCluster(t *testing.T, report map[string]any) string {
	t.Helper()
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClusterGate(t *testing.T) {
	if err := cmdCluster([]string{writeCluster(t, healthyCluster())}); err != nil {
		t.Fatalf("healthy report: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(r map[string]any)
	}{
		{"no dispatched regions", "zero regions", func(r map[string]any) {
			r["xl_dispatch"].(map[string]any)["regions_dispatched"] = 0
		}},
		{"lost jobs", "lost 1 jobs", func(r map[string]any) {
			r["kill_one_node"].(map[string]any)["lost"] = 1
		}},
		{"forwards unbalanced", "forward accounting", func(r map[string]any) { r["forwarded_in"] = 14 }},
		{"leaked goroutines", "goroutines leaked", func(r map[string]any) { r["leaked_goroutines"] = 2 }},
	} {
		r := healthyCluster()
		tc.mutate(r)
		err := cmdCluster([]string{writeCluster(t, r)})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
