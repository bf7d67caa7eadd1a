// Command benchgen emits the synthetic Table II benchmark placements as
// placed DEF files (one per design) plus the embedded LEF, so external
// tools — or the dscts CLI via -def — can consume them.
//
//	benchgen -out ./benchmarks [-seed 1] [-design C3]
//
// Its other modes are the repository's contract runs. Each writes a JSON
// report that opens with the host context and the list of violated
// contracts, and exits nonzero when that list is not empty.
//
// With -bench it measures the allocation cost of the one-worker engine
// stages (clustering and DP insertion on C3, synthesis on C3 and C5):
//
//	GOMAXPROCS=1 benchgen -bench [-bench-out BENCH_parallel.json]
//
// With -load -chaos it soaks an in-process dsctsd under a seeded
// fault-injection schedule (internal/fault) for -duration and asserts the
// hardening contract — daemon alive, every failure structured, zero leaked
// goroutines or workers, bounded error rate, /metrics agreeing with
// /stats. Over a -cache-dir that already holds results it also asserts the
// warm-restart rule:
//
//	benchgen -load -chaos default [-chaos-seed 1] [-duration 30s] [-cache-dir DIR]
//
// With -load -cluster N it boots an in-process N-node dsctsd cluster over
// loopback and asserts routing, remote region dispatch and kill-one-node
// recovery; combined with -chaos it instead soaks the cluster with the
// fault schedule armed on one node only:
//
//	benchgen -load -cluster 3
//	benchgen -load -cluster 3 -chaos default -duration 5m
//
// With -eco-out it measures full-vs-incremental (ECO) re-synthesis:
//
//	GOMAXPROCS=1 benchgen -eco-out new.json [-eco-designs C3] [-eco-xl 0]
//
// With -compare it gates a fresh -bench or -eco-out report against the
// committed baseline of its kind (compare.go):
//
//	benchgen -compare BENCH_parallel.json new.json
//	benchgen -compare BENCH_eco.json new.json
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dscts/internal/bench"
	"dscts/internal/lef"
)

// clientConc is the client count of the service runs (and the running-job
// slots of each cluster node).
const clientConc = 8

func main() {
	var (
		out       = flag.String("out", "benchmarks", "output directory")
		seed      = flag.Int64("seed", 1, "placement seed")
		design    = flag.String("design", "", "single design to emit (default: all)")
		doBench   = flag.Bool("bench", false, "measure the engine stages' allocation cost and write a JSON report instead of emitting DEFs")
		benchOut  = flag.String("bench-out", "BENCH_parallel.json", "report path for -bench")
		doLoad    = flag.Bool("load", false, "run a service contract against in-process dsctsd (needs -chaos or -cluster)")
		loadOut   = flag.String("load-out", "", "report path for -load (default BENCH_chaos.json or BENCH_cluster.json)")
		clusterN  = flag.Int("cluster", 0, "with -load: boot an in-process N-node cluster (consistent-hash routing, region dispatch) instead of one daemon")
		debugAddr = flag.String("debug-addr", "", "with -load: separate net/http/pprof listener kept up for the whole run (empty = disabled; never expose publicly)")
		chaos     = flag.String("chaos", "", "with -load: fault-injection spec for the chaos soak (\"default\" = built-in schedule; see internal/fault)")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-schedule seed for -chaos (same spec + seed replays the same schedule)")
		cacheDir  = flag.String("cache-dir", "", "persistent cache directory for the -chaos soak; soak twice over the same dir to test a restart mid-chaos")
		duration  = flag.Duration("duration", 30*time.Second, "chaos soak duration for -chaos")
		ecoOut    = flag.String("eco-out", "", "measure full-vs-incremental (ECO) re-synthesis and write the JSON report to this path")
		ecoDes    = flag.String("eco-designs", "C1,C2,C3,C4,C5", "comma-separated designs for -eco-out")
		ecoXL     = flag.Int("eco-xl", 500000, "XL placement sink count for -eco-out (0 = skip the XL row)")
		doCompare = flag.Bool("compare", false, "gate the report NEW against the baseline BASE, given as two arguments after the flags")
	)
	flag.Parse()
	if *doLoad && *debugAddr != "" {
		go serveDebug(*debugAddr)
	}
	var err error
	switch {
	case *doCompare && flag.NArg() != 2:
		fmt.Fprintln(os.Stderr, "benchgen: usage: benchgen -compare BASE NEW")
		os.Exit(2)
	case *doCompare:
		err = runCompare(flag.Arg(0), flag.Arg(1))
	case *doBench:
		err = runBench(*benchOut)
	case *doLoad && *clusterN > 0:
		err = runCluster(cmp.Or(*loadOut, "BENCH_cluster.json"), *clusterN, *chaos, *chaosSeed, *duration)
	case *doLoad && *chaos != "":
		err = runChaos(cmp.Or(*loadOut, "BENCH_chaos.json"), *chaos, *chaosSeed, *duration, *cacheDir)
	case *doLoad:
		fmt.Fprintln(os.Stderr, "benchgen: -load needs -chaos SPEC or -cluster N")
		flag.Usage()
		os.Exit(2)
	case *ecoOut != "":
		err = runECOBench(*ecoOut, splitCSV(*ecoDes), *ecoXL, *seed)
	default:
		err = emitDEFs(*out, *design, *seed)
	}
	if err != nil {
		fatal(err)
	}
}

// emitDEFs writes one placed DEF per design (or just the named one) plus
// the embedded LEF into dir.
func emitDEFs(dir, design string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	designs := bench.Suite()
	if design != "" {
		d, err := bench.ByID(design)
		if err != nil {
			return err
		}
		designs = []bench.Design{d}
	}
	for _, d := range designs {
		p, err := bench.Generate(d, seed)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.def", d.ID, d.Name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := errors.Join(p.ToDEF().Write(f), f.Close()); err != nil {
			return err
		}
		fmt.Printf("%s: %d FFs, die %.0fx%.0f um -> %s\n",
			d.ID, len(p.Sinks), p.Die.W(), p.Die.H(), path)
	}
	lefPath := filepath.Join(dir, "asap7_min.lef")
	if err := os.WriteFile(lefPath, []byte(lef.Embedded), 0o644); err != nil {
		return err
	}
	fmt.Printf("library -> %s\n", lefPath)
	return nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
