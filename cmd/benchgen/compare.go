package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
)

// `benchgen -compare BASE NEW` is the one baseline gate. It reads two
// reports of one kind that benchgen wrote and fails when NEW regresses
// past maxRegressPct against BASE, or lacks an entry BASE has:
//
//   - an allocation report (-bench, BENCH_parallel.json): every baseline
//     stage's allocs_per_op and bytes_per_op may not grow by more than
//     maxRegressPct, or by slackAllocs / slackBytes if that is larger. Go's
//     allocation accounting is the same on any host at one GOMAXPROCS; the
//     floors keep a near-zero stage from failing on pool-timing jitter.
//   - an ECO report (-eco-out, BENCH_eco.json): each row's speedup may not
//     drop, and its latencies, skews and latency gap may not grow. The
//     speedup is a median of ratios of two durations timed back to back,
//     so it transfers between runs far better than the raw milliseconds,
//     which are not gated; the quality indicators are functions of (code,
//     seed). NEW must hold every baseline row of each design it ran; rows
//     of the designs it did not run (CI runs C3 only) are not compared.
//
// Two reports whose goos, goarch or gomaxprocs differ are refused: a ratio
// or an allocation count measured at another GOMAXPROCS is another
// workload, so the gate would measure the setting instead of the code.

const (
	maxRegressPct = 15
	slackAllocs   = 128
	slackBytes    = 64 << 10
)

// comparedReport decodes either kind of report; the other kind's field
// stays empty.
type comparedReport struct {
	header
	Stages map[string]stageResult `json:"stages"`
	Rows   []ecoRow               `json:"rows"`
}

// gatedNames labels ecoRow.gated's indicators.
var gatedNames = [...]string{"speedup", "latency_full_ps", "latency_eco_ps", "skew_full_ps", "skew_eco_ps", "latency_rel_err"}

// gated returns the row's gated indicators, the one that may not drop
// first and then those that may not grow.
func (r ecoRow) gated() [len(gatedNames)]float64 {
	return [...]float64{r.Speedup, r.LatencyFullPS, r.LatencyECOPS, r.SkewFullPS, r.SkewECOPS, r.LatencyRelErr}
}

// id pairs rows across reports, whatever order they were written in.
func (r ecoRow) id() string {
	return fmt.Sprintf("%s/%s/%d sinks/%g%%", r.Design, r.Mode, r.Sinks, r.DeltaPct)
}

// compare gates cur against base and returns how many indicators it
// compared, with an error naming every regression and every missing
// baseline entry.
func compare(base, cur *comparedReport) (checked int, err error) {
	for _, f := range []struct {
		name      string
		base, cur any
	}{
		{"goos", base.GOOS, cur.GOOS},
		{"goarch", base.GOARCH, cur.GOARCH},
		{"gomaxprocs", base.GOMAXPROCS, cur.GOMAXPROCS},
	} {
		if f.base != f.cur {
			return 0, fmt.Errorf("not comparable: %s differs: baseline %v, new %v", f.name, f.base, f.cur)
		}
	}
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	for _, name := range slices.Sorted(maps.Keys(base.Stages)) {
		now, ok := cur.Stages[name]
		if !ok {
			fail("MISSING stage %s (regenerate the baseline when a stage is renamed or dropped)", name)
			continue
		}
		was := base.Stages[name]
		for _, m := range []struct {
			metric          string
			was, now, slack int64
		}{
			{"allocs_per_op", was.AllocsPerOp, now.AllocsPerOp, slackAllocs},
			{"bytes_per_op", was.BytesPerOp, now.BytesPerOp, slackBytes},
		} {
			checked++
			if limit := max(m.was+m.was*maxRegressPct/100, m.was+m.slack); m.now > limit {
				fail("REGRESSION %s %s: %d -> %d (limit %d: +%d%% or +%d)", name, m.metric, m.was, m.now, limit, maxRegressPct, m.slack)
			}
		}
	}

	ran := map[string]bool{}
	fresh := map[string]ecoRow{}
	for _, r := range cur.Rows {
		ran[r.Design] = true
		fresh[r.id()] = r
	}
	for _, was := range base.Rows {
		if !ran[was.Design] {
			continue
		}
		now, ok := fresh[was.id()]
		if !ok {
			fail("MISSING row %s (regenerate the baseline when a row is renamed or dropped)", was.id())
			continue
		}
		w, n := was.gated(), now.gated()
		for i, name := range gatedNames {
			if math.Abs(w[i]) < 1e-9 && math.Abs(n[i]) < 1e-9 {
				continue // dormant on both sides
			}
			checked++
			change := (n[i] - w[i]) / max(math.Abs(w[i]), 1e-9)
			regress := change
			if i == 0 {
				regress = -change // a dropped speedup regresses
			}
			if regress > maxRegressPct/100.0 {
				fail("REGRESSION %s %s: %.4g -> %.4g (%+.1f%%)", was.id(), name, w[i], n[i], 100*change)
			}
		}
	}

	switch {
	case len(fails) > 0:
		return checked, fmt.Errorf("%d failure(s) among %d compared indicators:\n  %s", len(fails), checked, strings.Join(fails, "\n  "))
	case checked == 0:
		return 0, fmt.Errorf("no comparable indicators")
	}
	return checked, nil
}

func loadReport(path string) (*comparedReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep comparedReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runCompare is the -compare entry point.
func runCompare(basePath, newPath string) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return err
	}
	checked, err := compare(base, cur)
	if err != nil {
		return fmt.Errorf("%s against %s: %w", newPath, basePath, err)
	}
	fmt.Printf("compared %d indicators (%s against %s), max regress %d%%: no regressions\n",
		checked, newPath, basePath, maxRegressPct)
	return nil
}
