package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compareHost is the header of every fixture report a case does not edit.
var compareHost = header{GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 1}

// allocsFixture is a two-stage allocation report, edited by edit if given.
func allocsFixture(edit func(r *comparedReport)) *comparedReport {
	r := &comparedReport{header: compareHost, Stages: map[string]stageResult{
		"synthesize-C5-workers1":      {AllocsPerOp: 10000, BytesPerOp: 1 << 20},
		"clustering-C3-grid-workers1": {AllocsPerOp: 100, BytesPerOp: 1 << 10},
	}}
	if edit != nil {
		edit(r)
	}
	return r
}

func ecoRowAt(design, mode string, pct float64) ecoRow {
	return ecoRow{Design: design, Mode: mode, Sinks: 10018, DeltaPct: pct, Speedup: 12.5,
		LatencyFullPS: 190, LatencyECOPS: 188, SkewFullPS: 40, SkewECOPS: 38, LatencyRelErr: 0.01}
}

// ecoFixture is a three-row ECO report over C3 and C4, edited by edit if
// given.
func ecoFixture(edit func(r *comparedReport)) *comparedReport {
	r := &comparedReport{header: compareHost, Rows: []ecoRow{ecoRowAt("C3", "mono", 1), ecoRowAt("C3", "part", 1), ecoRowAt("C4", "mono", 1)}}
	if edit != nil {
		edit(r)
	}
	return r
}

type compareCase struct {
	name      string
	base, cur *comparedReport
	checked   int    // indicators compared
	err       string // "" when the gate passes
}

func runCompareCases(t *testing.T, cases []compareCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checked, err := compare(c.base, c.cur)
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("want a pass, got %v", err)
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Fatalf("got %v, want an error containing %q", err, c.err)
			case checked != c.checked:
				t.Fatalf("compared %d indicators, want %d", checked, c.checked)
			}
		})
	}
}

// writeCompared writes r as a report file and returns its path.
func writeCompared(t *testing.T, name string, r *comparedReport) string {
	t.Helper()
	data, err := json.Marshal(r)
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
// the same goos, goarch and gomaxprocs, and names the field that differs
// with both values, for either report kind read from its file.
func TestCompareRefusesOtherHost(t *testing.T) {
	for _, kind := range []struct {
		name   string
		report func(edit func(r *comparedReport)) *comparedReport
	}{
		{"allocs", allocsFixture},
		{"eco", ecoFixture},
	} {
		base := writeCompared(t, kind.name+"-base.json", kind.report(nil))
		if err := runCompare(base, writeCompared(t, kind.name+"-same.json", kind.report(nil))); err != nil {
			t.Fatalf("%s, same host: %v", kind.name, err)
		}
		for _, c := range []struct {
			field, want string
			edit        func(r *comparedReport)
		}{
			{"gomaxprocs", "gomaxprocs differs: baseline 1, new 2", func(r *comparedReport) { r.GOMAXPROCS = 2 }},
			{"goos", "goos differs: baseline linux, new darwin", func(r *comparedReport) { r.GOOS = "darwin" }},
			{"goarch", "goarch differs: baseline amd64, new arm64", func(r *comparedReport) { r.GOARCH = "arm64" }},
		} {
			err := runCompare(base, writeCompared(t, kind.name+"-"+c.field+".json", kind.report(c.edit)))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s mismatch: got %v, want an error containing %q", kind.name, c.field, err, c.want)
			}
		}
	}
}

// TestAllocsGate holds -compare to its rules on allocation reports: each
// baseline stage's allocs and bytes per op may grow by 15% or by the
// slack floors, whichever is larger, and a baseline stage the fresh
// report lacks fails by name.
func TestAllocsGate(t *testing.T) {
	stage := func(name string, allocs, bytes int64) func(r *comparedReport) {
		return func(r *comparedReport) { r.Stages[name] = stageResult{AllocsPerOp: allocs, BytesPerOp: bytes} }
	}
	runCompareCases(t, []compareCase{
		{name: "equal", base: allocsFixture(nil), cur: allocsFixture(nil), checked: 4},
		{name: "20% more allocs", base: allocsFixture(nil), cur: allocsFixture(stage("synthesize-C5-workers1", 12000, 1<<20)), checked: 4,
			err: "REGRESSION synthesize-C5-workers1 allocs_per_op: 10000 -> 12000"},
		{name: "20% more bytes", base: allocsFixture(nil), cur: allocsFixture(stage("synthesize-C5-workers1", 10000, 1<<20+1<<20/5)), checked: 4,
			err: "synthesize-C5-workers1 bytes_per_op"},
		// A 100-alloc, 1 KiB stage doubles and more, inside the floors.
		{name: "within slack", base: allocsFixture(nil), cur: allocsFixture(stage("clustering-C3-grid-workers1", 228, 1<<10+64<<10)), checked: 4},
		{name: "past slack", base: allocsFixture(nil), cur: allocsFixture(stage("clustering-C3-grid-workers1", 229, 1<<10)), checked: 4,
			err: "clustering-C3-grid-workers1 allocs_per_op: 100 -> 229"},
		// A baseline stage the fresh report lacks fails the gate by name,
		// even when every stage both reports share is within bounds.
		{name: "stage missing", base: allocsFixture(nil), cur: allocsFixture(func(r *comparedReport) { delete(r.Stages, "clustering-C3-grid-workers1") }), checked: 2,
			err: "MISSING stage clustering-C3-grid-workers1"},
		{name: "stage added", base: allocsFixture(nil), cur: allocsFixture(stage("insertion-C3-workers1", 51, 1<<21)), checked: 4},
	})
}

// TestCompare holds -compare to its rules on ECO reports: each gated
// indicator's direction and bound, dormant indicators, missing baseline
// rows and a comparison that checks nothing; and passes each committed
// baseline against itself.
func TestCompare(t *testing.T) {
	onlyC3 := func(r *comparedReport) { r.Rows = r.Rows[:2] }
	grow := func(i int, f func(r *ecoRow)) func(r *comparedReport) {
		return func(r *comparedReport) { f(&r.Rows[i]) }
	}
	runCompareCases(t, []compareCase{
		{name: "eco/equal", base: ecoFixture(nil), cur: ecoFixture(nil), checked: 18},
		{name: "eco/speedup drops 20%", base: ecoFixture(nil), cur: ecoFixture(grow(0, func(r *ecoRow) { r.Speedup = 10 })), checked: 18,
			err: "REGRESSION C3/mono/10018 sinks/1% speedup: 12.5 -> 10 (-20.0%)"},
		{name: "eco/speedup drops 10%", base: ecoFixture(nil), cur: ecoFixture(grow(0, func(r *ecoRow) { r.Speedup = 11.25 })), checked: 18},
		{name: "eco/speedup rises", base: ecoFixture(nil), cur: ecoFixture(grow(0, func(r *ecoRow) { r.Speedup = 50 })), checked: 18},
		{name: "eco/latency_full_ps", base: ecoFixture(nil), cur: ecoFixture(grow(1, func(r *ecoRow) { r.LatencyFullPS *= 1.2 })), checked: 18,
			err: "C3/part/10018 sinks/1% latency_full_ps"},
		{name: "eco/latency_eco_ps", base: ecoFixture(nil), cur: ecoFixture(grow(1, func(r *ecoRow) { r.LatencyECOPS *= 1.2 })), checked: 18,
			err: "C3/part/10018 sinks/1% latency_eco_ps"},
		{name: "eco/skew_full_ps", base: ecoFixture(nil), cur: ecoFixture(grow(1, func(r *ecoRow) { r.SkewFullPS *= 1.2 })), checked: 18,
			err: "C3/part/10018 sinks/1% skew_full_ps"},
		{name: "eco/skew_eco_ps", base: ecoFixture(nil), cur: ecoFixture(grow(1, func(r *ecoRow) { r.SkewECOPS *= 1.2 })), checked: 18,
			err: "C3/part/10018 sinks/1% skew_eco_ps"},
		{name: "eco/latency_rel_err", base: ecoFixture(nil), cur: ecoFixture(grow(1, func(r *ecoRow) { r.LatencyRelErr *= 1.2 })), checked: 18,
			err: "C3/part/10018 sinks/1% latency_rel_err"},
		{name: "eco/skew falls", base: ecoFixture(nil), cur: ecoFixture(grow(1, func(r *ecoRow) { r.SkewECOPS /= 2 })), checked: 18},
		{name: "eco/zero on both sides skipped", base: ecoFixture(grow(0, func(r *ecoRow) { r.LatencyRelErr = 0 })),
			cur: ecoFixture(grow(0, func(r *ecoRow) { r.LatencyRelErr = 0 })), checked: 17},
		{name: "eco/zero grows", base: ecoFixture(grow(0, func(r *ecoRow) { r.LatencyRelErr = 0 })), cur: ecoFixture(nil), checked: 18,
			err: "C3/mono/10018 sinks/1% latency_rel_err"},
		{name: "eco/row of a run design missing", base: ecoFixture(nil), cur: ecoFixture(func(r *comparedReport) { r.Rows = r.Rows[1:] }), checked: 12,
			err: "MISSING row C3/mono/10018 sinks/1%"},
		{name: "eco/rows of other designs skipped", base: ecoFixture(nil), cur: ecoFixture(onlyC3), checked: 12},
		{name: "eco/row added", base: ecoFixture(onlyC3), cur: ecoFixture(func(r *comparedReport) { r.Rows = append(r.Rows, ecoRowAt("C3", "mono", 10)) }), checked: 12},
		{name: "eco/nothing in common", base: ecoFixture(func(r *comparedReport) { r.Rows = r.Rows[2:] }), cur: ecoFixture(onlyC3), err: "no comparable indicators"},
		{name: "eco/against allocs", base: ecoFixture(nil), cur: allocsFixture(nil), err: "no comparable indicators"},
		{name: "empty", base: &comparedReport{header: compareHost}, cur: &comparedReport{header: compareHost}, err: "no comparable indicators"},
	})

	// The committed baselines decode and pass against themselves.
	for _, path := range []string{"../../BENCH_parallel.json", "../../BENCH_eco.json"} {
		if err := runCompare(path, path); err != nil {
			t.Errorf("%s against itself: %v", path, err)
		}
	}
}
