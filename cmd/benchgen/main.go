// Command benchgen emits the synthetic Table II benchmark placements as
// placed DEF files (one per design) plus the embedded LEF, so external
// tools — or the dscts CLI via -def — can consume them.
//
//	benchgen -out ./benchmarks [-seed 1] [-design C3]
//
// With -bench it instead measures the parallel synthesis engine stage by
// stage (grid vs brute-force clustering, single- vs multi-worker DP
// insertion, end-to-end synthesis) and writes a machine-readable
// BENCH_parallel.json with ns/op and allocs/op per stage:
//
//	benchgen -bench [-bench-out BENCH_parallel.json]
//
// With -load it replays concurrent synthesis jobs against an in-process
// dsctsd service and writes throughput/latency percentiles to a
// machine-readable BENCH_serve.json:
//
//	benchgen -load [-load-jobs 40] [-load-conc 8] [-load-distinct 20] [-load-out BENCH_serve.json]
//
// With -load -chaos it instead soaks the in-process service under a seeded
// fault-injection schedule (internal/fault) for -duration, asserting the
// hardening contract — daemon alive, every failure structured, zero leaked
// goroutines or workers, bounded error rate — and writes BENCH_chaos.json:
//
//	benchgen -load -chaos default [-chaos-seed 1] [-duration 30s]
//
// With -load -cluster N it boots an in-process N-node dsctsd cluster over
// loopback (consistent-hash routing with forward-on-miss, remote region
// dispatch) and writes per-node throughput, forward and region-dispatch
// counters, an XL remote-dispatch section and a kill-one-node recovery
// section to BENCH_cluster.json; combined with -chaos it instead soaks the
// cluster with the fault schedule armed on one node only:
//
//	benchgen -load -cluster 3 [-load-jobs 180] [-load-conc 8]
//	benchgen -load -cluster 3 -chaos default -duration 5m
//
// With -persist it replays a request pool against an in-process dsctsd
// backed by a disk cache tier, restarts the daemon over the same directory,
// and writes the warm-vs-cold comparison to BENCH_persist.json — failing if
// the restarted daemon recomputes anything the first process already solved:
//
//	benchgen -persist [-persist-jobs 9] [-persist-out BENCH_persist.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dscts/internal/bench"
	"dscts/internal/lef"
)

func main() {
	var (
		out        = flag.String("out", "benchmarks", "output directory")
		seed       = flag.Int64("seed", 1, "placement seed")
		design     = flag.String("design", "", "single design to emit (default: all)")
		doBench    = flag.Bool("bench", false, "measure the parallel engine and write a JSON report instead of emitting DEFs")
		benchOut   = flag.String("bench-out", "BENCH_parallel.json", "report path for -bench")
		doLoad     = flag.Bool("load", false, "replay concurrent jobs against an in-process dsctsd and write a JSON report")
		loadOut    = flag.String("load-out", "BENCH_serve.json", "report path for -load")
		clusterN   = flag.Int("cluster", 0, "with -load: boot an in-process N-node cluster (consistent-hash routing, region dispatch) instead of one daemon and write BENCH_cluster.json")
		doScale    = flag.String("scale-out", "", "measure monolithic vs partition-parallel scaling over XL placements and write the JSON report to this path (e.g. BENCH_scale.json)")
		scaleSize  = flag.String("scale-sizes", "100000,250000,500000,1000000", "comma-separated sink counts for -scale-out")
		scaleWk    = flag.Int("scale-workers", 0, "worker budget for the multi-worker runs of -scale-out (0 = all CPUs)")
		scaleCap   = flag.Int("scale-mono-cap", 1000000, "largest size the monolithic flow is timed at in -scale-out (it grows superlinearly; 0 = no cap)")
		scalePart  = flag.Int("scale-partition", 50000, "region capacity (Partition.MaxSinks) for -scale-out")
		loadJobs   = flag.Int("load-jobs", 40, "total jobs to replay with -load")
		loadConc   = flag.Int("load-conc", 8, "concurrent clients (and running-job slots) for -load")
		loadDist   = flag.Int("load-distinct", 0, "distinct request shapes for -load (0 = jobs/2, so half the replay can hit the cache)")
		doPersist  = flag.Bool("persist", false, "measure the disk-backed cache tier across a daemon restart and write a JSON report")
		persistOut = flag.String("persist-out", "BENCH_persist.json", "report path for -persist")
		persistJob = flag.Int("persist-jobs", 9, "distinct requests replayed on each side of the restart for -persist")
		debugAddr  = flag.String("debug-addr", "", "with -load: separate net/http/pprof listener kept up for the whole run (empty = disabled; never expose publicly)")
		chaos      = flag.String("chaos", "", "with -load: fault-injection spec for the chaos soak (\"default\" = built-in schedule; see internal/fault)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "fault-schedule seed for -chaos (same spec + seed replays the same schedule)")
		chaosDir   = flag.String("cache-dir", "", "persistent cache directory for the -chaos soak; soak twice over the same dir to test a restart mid-chaos")
		duration   = flag.Duration("duration", 30*time.Second, "chaos soak duration for -chaos")
		ecoOut     = flag.String("eco-out", "", "measure full-vs-incremental (ECO) re-synthesis and write the JSON report to this path (e.g. BENCH_eco.json)")
		ecoDes     = flag.String("eco-designs", "C1,C2,C3,C4,C5", "comma-separated designs for -eco-out")
		ecoXL      = flag.Int("eco-xl", 500000, "XL placement sink count for -eco-out (0 = skip the XL row)")
		ecoPart    = flag.Int("eco-partition", 2000, "region capacity for the partitioned C-series rows of -eco-out (0 = mono rows only)")
		ecoXLPart  = flag.Int("eco-xl-partition", 50000, "region capacity for the XL rows of -eco-out")
		ecoPcts    = flag.String("eco-pcts", "0.1,1,10", "comma-separated delta sizes (percent of sinks) for -eco-out")
		ecoWk      = flag.Int("eco-workers", 0, "worker budget for -eco-out (0 = all CPUs)")
		ecoReps    = flag.Int("eco-reps", 3, "measurement repetitions for -eco-out (fastest run is reported)")
	)
	// `benchgen -compare baseline.json new.json [-max-regress 15%]` is the
	// bench-regression gate; it is parsed by hand because the two report
	// paths are positional between flags, which the flag package rejects.
	if len(os.Args) > 1 && (os.Args[1] == "-compare" || os.Args[1] == "--compare") {
		if err := compareCLI(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	flag.Parse()
	if *doBench {
		if err := runBench(*benchOut); err != nil {
			fatal(err)
		}
		return
	}
	if *doLoad {
		if *debugAddr != "" {
			go serveDebug(*debugAddr)
		}
		if *clusterN > 0 {
			// Cluster runs (plain or chaos) default to their own report
			// name; an explicit -load-out still wins.
			out := *loadOut
			if !flagWasSet("load-out") {
				out = "BENCH_cluster.json"
			}
			// -load-jobs is TOTAL jobs; unset means runCluster scales its
			// own default with the node count.
			jobs := 0
			if flagWasSet("load-jobs") {
				jobs = *loadJobs
			}
			if err := runCluster(out, *clusterN, jobs, *loadConc, *loadDist, *chaos, *chaosSeed, *duration); err != nil {
				fatal(err)
			}
			return
		}
		if *chaos != "" {
			// The chaos soak gets its own default report name so a plain
			// `-load` baseline and a chaos run never clobber each other;
			// an explicit -load-out still wins.
			out := *loadOut
			if !flagWasSet("load-out") {
				out = "BENCH_chaos.json"
			}
			if err := runChaos(out, *chaos, *chaosSeed, *duration, *loadConc, *chaosDir); err != nil {
				fatal(err)
			}
			return
		}
		if err := runLoad(*loadOut, *loadJobs, *loadConc, *loadDist); err != nil {
			fatal(err)
		}
		return
	}
	if *doPersist {
		if err := runPersist(*persistOut, *persistJob, *loadConc); err != nil {
			fatal(err)
		}
		return
	}
	if *doScale != "" {
		sizes, err := parseSizes(*scaleSize)
		if err != nil {
			fatal(err)
		}
		if err := runScale(*doScale, sizes, *scaleWk, *scaleCap, *scalePart, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *ecoOut != "" {
		pcts, err := parsePcts(*ecoPcts)
		if err != nil {
			fatal(err)
		}
		designs := splitCSV(*ecoDes)
		if err := runECOBench(*ecoOut, designs, *ecoXL, *ecoPart, *ecoXLPart, *ecoWk, *ecoReps, pcts, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	designs := bench.Suite()
	if *design != "" {
		d, err := bench.ByID(*design)
		if err != nil {
			fatal(err)
		}
		designs = []bench.Design{d}
	}
	for _, d := range designs {
		p, err := bench.Generate(d, *seed)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, fmt.Sprintf("%s_%s.def", d.ID, d.Name))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := p.ToDEF().Write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d FFs, die %.0fx%.0f um -> %s\n",
			d.ID, len(p.Sinks), p.Die.W(), p.Die.H(), path)
	}
	lefPath := filepath.Join(*out, "asap7_min.lef")
	if err := os.WriteFile(lefPath, []byte(lef.Embedded), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("library -> %s\n", lefPath)
}

// flagWasSet reports whether a flag was given explicitly on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseSizes parses the comma-separated -scale-sizes list.
func parseSizes(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("benchgen: bad -scale-sizes entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgen: -scale-sizes is empty")
	}
	return out, nil
}

// splitCSV splits a comma-separated list, dropping empty entries.
func splitCSV(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parsePcts parses the -eco-pcts list.
func parsePcts(csv string) ([]float64, error) {
	var out []float64
	for _, part := range splitCSV(csv) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 || v > 100 {
			return nil, fmt.Errorf("benchgen: bad -eco-pcts entry %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgen: -eco-pcts is empty")
	}
	return out, nil
}

// compareCLI parses `-compare base.json new.json [-max-regress P]`.
func compareCLI(args []string) error {
	var paths []string
	maxRegress := 0.15
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-max-regress", "--max-regress":
			if i+1 >= len(args) {
				return fmt.Errorf("benchgen: -max-regress needs a value")
			}
			i++
			v, err := parseMaxRegress(args[i])
			if err != nil {
				return err
			}
			maxRegress = v
		default:
			paths = append(paths, args[i])
		}
	}
	if len(paths) != 2 {
		return fmt.Errorf("benchgen: usage: benchgen -compare baseline.json new.json [-max-regress 15%%]")
	}
	return runCompare(paths[0], paths[1], maxRegress)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
