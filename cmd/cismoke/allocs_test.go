package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport writes a minimal BENCH_parallel.json with one stage.
func writeReport(t *testing.T, name string, gomaxprocs int, allocs, bytes int64) string {
	t.Helper()
	return writeStages(t, name, gomaxprocs, map[string]any{
		"synthesize-C5-workers1": map[string]int64{"allocs_per_op": allocs, "bytes_per_op": bytes},
	})
}

func writeStages(t *testing.T, name string, gomaxprocs int, stages map[string]any) string {
	t.Helper()
	report := map[string]any{"gomaxprocs": gomaxprocs, "stages": stages}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAllocsGate(t *testing.T) {
	base := writeReport(t, "base.json", 1, 10000, 1<<20)

	if err := cmdAllocs([]string{"-max-regress", "15", base, writeReport(t, "same.json", 1, 10000, 1<<20)}); err != nil {
		t.Errorf("equal reports: %v", err)
	}

	err := cmdAllocs([]string{"-max-regress", "15", base, writeReport(t, "grown.json", 1, 12000, 1<<20)})
	if err == nil || !strings.Contains(err.Error(), "allocation regression") {
		t.Errorf("20%% more allocs: got %v, want an allocation regression", err)
	}

	err = cmdAllocs([]string{"-max-regress", "15", base, writeReport(t, "procs.json", 2, 10000, 1<<20)})
	if err == nil || !strings.Contains(err.Error(), "gomaxprocs") ||
		!strings.Contains(err.Error(), "at 1") || !strings.Contains(err.Error(), "at 2") {
		t.Errorf("gomaxprocs 1 vs 2: got %v, want an error naming both values", err)
	}

	// A baseline stage the fresh report lacks fails the gate by name, even
	// when every stage both reports share is within bounds.
	two := writeStages(t, "two.json", 1, map[string]any{
		"synthesize-C5-workers1":           map[string]int64{"allocs_per_op": 10000, "bytes_per_op": 1 << 20},
		"clustering-C3-arenawarm-workers1": map[string]int64{"allocs_per_op": 100, "bytes_per_op": 1 << 10},
	})
	err = cmdAllocs([]string{"-max-regress", "15", two, writeReport(t, "one.json", 1, 10000, 1<<20)})
	if err == nil || !strings.Contains(err.Error(), "clustering-C3-arenawarm-workers1") {
		t.Errorf("stage dropped from the fresh report: got %v, want an error naming it", err)
	}
}
