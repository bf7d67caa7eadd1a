package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The bench-regression comparator: `benchgen -compare baseline.json
// new.json -max-regress 15%` walks two ECO reports, pairs their gated
// indicators by path, and exits nonzero when any regresses past the
// threshold. Gated indicators are chosen to be meaningful across machines:
//
//   - speedup (higher is better): a dimensionless ratio of two durations
//     measured in the SAME run, so it transfers between hosts far better
//     than raw milliseconds;
//   - quality metrics (lower is better): *_ps latencies/skews and
//     *_rel_err — deterministic functions of (code, seed), so any drift is
//     a real change.
//
// Raw *_ms wall-clock leaves are deliberately NOT gated: comparing
// absolute times recorded on different hardware only produces noise.
//
// Nor are two reports compared whose headers differ in a host field
// (hostFields): a speedup measured at another GOMAXPROCS is a different
// workload (the full run parallelizes, a one-cluster ECO barely does), so
// the gate would measure the setting instead of the code.

// hostFields are the report header fields two compared reports must share.
var hostFields = []string{"goos", "goarch", "gomaxprocs"}

// sameHost returns an error naming the first host field whose value
// differs between the two parsed reports.
func sameHost(base, cur any) error {
	b, _ := base.(map[string]any)
	c, _ := cur.(map[string]any)
	for _, f := range hostFields {
		if bv, cv := fmt.Sprint(b[f]), fmt.Sprint(c[f]); bv != cv {
			return fmt.Errorf("%s differs: baseline %s, new %s", f, bv, cv)
		}
	}
	return nil
}

// comparePolicy classifies a leaf key.
func comparePolicy(key string) (higherBetter, gated bool) {
	switch {
	case key == "speedup":
		return true, true
	case strings.HasSuffix(key, "_ps") || strings.HasSuffix(key, "_rel_err"):
		return false, true
	}
	return false, false
}

// identity labels a row by its identifying fields so rows pair up even
// when rows were inserted or reordered between the two reports.
func identity(v any, index int) string {
	obj, ok := v.(map[string]any)
	if !ok {
		return strconv.Itoa(index)
	}
	var parts []string
	for _, k := range []string{"design", "mode", "sinks", "delta_pct"} {
		if f, ok := obj[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%v", k, f))
		}
	}
	if len(parts) == 0 {
		return strconv.Itoa(index)
	}
	return strings.Join(parts, ",")
}

// flattenGated collects every gated numeric leaf, keyed by its path.
func flattenGated(v any, path string, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			p := k
			if path != "" {
				p = path + "." + k
			}
			if f, ok := c.(float64); ok {
				if _, gated := comparePolicy(k); gated {
					out[p] = f
				}
				continue
			}
			flattenGated(c, p, out)
		}
	case []any:
		for i, c := range t {
			flattenGated(c, fmt.Sprintf("%s[%s]", path, identity(c, i)), out)
		}
	}
}

type regression struct {
	path     string
	old, new float64
	change   float64 // signed relative change, regression-positive
}

// compareReports pairs the gated indicators of two parsed reports and
// returns the regressions beyond maxRegress (a fraction, e.g. 0.15).
// Indicators present in only one report are skipped: rows come and go as
// benchmarks evolve, and the gate must not punish adding coverage.
func compareReports(base, cur any, maxRegress float64) (regs []regression, checked int) {
	bv, cv := map[string]float64{}, map[string]float64{}
	flattenGated(base, "", bv)
	flattenGated(cur, "", cv)
	paths := make([]string, 0, len(bv))
	for p := range bv {
		if _, ok := cv[p]; ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		old, now := bv[p], cv[p]
		key := p
		if i := strings.LastIndex(p, "."); i >= 0 {
			key = p[i+1:]
		}
		higher, _ := comparePolicy(key)
		// Both sides negligible: nothing to gate (dormant indicators).
		if math.Abs(old) < 1e-9 && math.Abs(now) < 1e-9 {
			continue
		}
		checked++
		den := math.Abs(old)
		if den < 1e-9 {
			den = 1e-9
		}
		var change float64
		if higher {
			change = (old - now) / den // dropped speedup regresses
		} else {
			change = (now - old) / den // grown skew/latency/error regresses
		}
		if change > maxRegress {
			regs = append(regs, regression{path: p, old: old, new: now, change: change})
		}
	}
	return regs, checked
}

// parseMaxRegress accepts "15%" or "0.15".
func parseMaxRegress(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("benchgen: bad -max-regress %q", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

func loadJSON(path string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// runCompare implements the CLI entry. Returns an error for usage/IO
// problems; regressions print a table and exit(1) directly.
func runCompare(basePath, newPath string, maxRegress float64) error {
	base, err := loadJSON(basePath)
	if err != nil {
		return err
	}
	cur, err := loadJSON(newPath)
	if err != nil {
		return err
	}
	if err := sameHost(base, cur); err != nil {
		return fmt.Errorf("%s and %s are not comparable: %w", basePath, newPath, err)
	}
	regs, checked := compareReports(base, cur, maxRegress)
	if checked == 0 {
		return fmt.Errorf("benchgen: no comparable indicators between %s and %s", basePath, newPath)
	}
	fmt.Printf("compared %d indicators (%s vs %s), max regress %.1f%%\n",
		checked, basePath, newPath, 100*maxRegress)
	if len(regs) == 0 {
		fmt.Println("no regressions")
		return nil
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %-70s %12.4g -> %-12.4g (%+.1f%%)\n", r.path, r.old, r.new, 100*r.change)
	}
	os.Exit(1)
	return nil
}
