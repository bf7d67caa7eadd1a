package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeECOReport writes a one-row ECO report with the given header fields.
func writeECOReport(t *testing.T, name, goos, goarch string, gomaxprocs int) string {
	t.Helper()
	rep := map[string]any{
		"goos": goos, "goarch": goarch, "num_cpu": 2, "gomaxprocs": gomaxprocs,
		"violations": []string{},
		"rows":       []any{map[string]any{"design": "C3", "mode": "mono", "delta_pct": 1, "speedup": 12.5}},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareRefusesOtherHost: -compare gates only reports measured under
// the same goos, goarch and gomaxprocs, and names the field that differs.
func TestCompareRefusesOtherHost(t *testing.T) {
	base := writeECOReport(t, "base.json", "linux", "amd64", 1)
	if err := runCompare(base, writeECOReport(t, "same.json", "linux", "amd64", 1), 0.15); err != nil {
		t.Fatalf("same host: %v", err)
	}
	for _, c := range []struct {
		field      string
		goos, arch string
		procs      int
	}{
		{"gomaxprocs", "linux", "amd64", 2},
		{"goos", "darwin", "amd64", 1},
		{"goarch", "linux", "arm64", 1},
	} {
		err := runCompare(base, writeECOReport(t, c.field+".json", c.goos, c.arch, c.procs), 0.15)
		if err == nil || !strings.Contains(err.Error(), c.field+" differs") {
			t.Errorf("%s mismatch: got %v, want an error naming %s", c.field, err, c.field)
		}
	}
}
