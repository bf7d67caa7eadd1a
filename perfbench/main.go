// Command perfbench is the repository benchmark. It runs one named
// workload against the engine and the service through their public
// functions, checks every result for correctness, and prints the metrics
// BENCHMARK.json names: the end-to-end metrics on an untraced run
// (--trace 0), the per-layer metrics on a traced run (--trace 1).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload suite-mono --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each run also writes its full
// report (workload fingerprint, host context, tail latency, notes) and, when
// traced, its spans under .bench_build/reports/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	golden   string // directory of the golden C1..C5 metrics
	outDir   string // where reports and traces go
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"suite-mono":     runSuite,
	"xl-partitioned": runXL,
	"serve-mixed":    runServe,
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// lists it must print, with their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// host is the machine and build context recorded with every report.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostContext() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// report is one run's full record, written as JSON next to the trace.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Fingerprint string             `json:"fingerprint"`
	Host        host               `json:"host"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Notes       []string           `json:"notes,omitempty"`
	// OpMS is every completed op's latency, in op order.
	OpMS []float64 `json:"op_ms"`
}

func newReport(cfg config, fp string) *report {
	return &report{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: cfg.duration.Seconds(), Fingerprint: fp, Host: hostContext(),
		Metrics: make(map[string]float64),
	}
}

// maxErrors bounds the error messages a report keeps; the count is exact.
const maxErrors = 20

// fail records one op that failed or did not pass the correctness check.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// latencyNotes records the median and tail of a latency sample set in the
// notes, applying the tail rule of tailPercentile.
func (r *report) latencyNotes(name string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	if t, ok := tailPercentile(ms); ok {
		r.note("%s: p50 %.4g ms, p%g %.4g ms (%d samples, %d beyond)", name, median(ms), t.P, t.Value, t.N, t.Beyond)
	} else {
		r.note("%s: p50 %.4g ms over %d samples; tail omitted (fewer than %d samples beyond p90)", name, median(ms), len(ms), minBeyond)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: suite-mono, xl-partitioned or serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&cfg.golden, "golden", filepath.Join("testdata", "golden"), "directory of the golden C1..C5 metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "reports"), "directory for run reports and traces")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	fs.BoolVar(&compare, "compare", false, "compare two report files (arguments: old new); refuses different workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two report files")
			return 2
		}
		if err := compareReports(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.duration = time.Duration(seconds * float64(time.Second))
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	line := resultLine{
		Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			if !cfg.trace {
				fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, m.Name)
				return 1
			}
			// A layer the workload never calls reads zero.
			v = 0
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if line.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no op completed")
		return 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: writing report:", err)
		return 1
	}
	printHuman(stdout, rep, want)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// printHuman prints the report for a reader: context, the printed metrics
// by name and unit, and the notes.
func printHuman(w io.Writer, r *report, want []metricSpec) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  %.0fs\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	fmt.Fprintf(w, "fingerprint %s\n", r.Fingerprint)
	fmt.Fprintf(w, "host num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	fmt.Fprintf(w, "ops attempted %d, failed %d (error_rate %.4g)\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, m := range want {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// compareReports prints the metric ratios of two reports of the same
// workload. Reports whose fingerprints differ measured different op lists,
// so comparing them would measure nothing: that is refused.
func compareReports(oldPath, newPath string, w io.Writer) error {
	load := func(p string) (*report, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Fingerprint != b.Fingerprint || a.Workload != b.Workload {
		return fmt.Errorf("refusing to compare different workloads: %s %s vs %s %s",
			a.Workload, a.Fingerprint, b.Workload, b.Fingerprint)
	}
	if a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare runs with different settings (trace %v/%v, seconds %g/%g)",
			a.Trace, b.Trace, a.Seconds, b.Seconds)
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s  %s (%s) -> %s (%s)\n", a.Workload, oldPath, a.Host.Commit, newPath, b.Host.Commit)
	for _, k := range names {
		ratio := "n/a"
		if a.Metrics[k] != 0 {
			ratio = fmt.Sprintf("%.4f", b.Metrics[k]/a.Metrics[k])
		}
		fmt.Fprintf(w, "  %-26s %14.6g %14.6g  x%s\n", k, a.Metrics[k], b.Metrics[k], ratio)
	}
	return nil
}
