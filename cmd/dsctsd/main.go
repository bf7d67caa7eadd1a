// Command dsctsd serves the double-side CTS engine as a multi-tenant HTTP
// service: a bounded job queue with admission control and per-job worker
// budgets, a content-addressed result cache, and NDJSON progress streaming.
//
//	dsctsd [-addr :8577] [-max-running 4] [-max-queued 64] [-workers 0] [-cache 128]
//	       [-job-timeout 0] [-watchdog-grace 2s] [-idem-entries 512]
//	       [-cache-dir ""] [-qos-classes interactive:3,batch:1] [-tenant-quota 0]
//	       [-metrics] [-debug-addr ""] [-log-level info] [-log-format text]
//	       [-fault-spec ""] [-fault-seed 1]
//	       [-peers ""] [-node-id ""] [-cluster-secret ""]
//
// API (see internal/serve):
//
//	POST /synthesize?mode=sync|async|stream   body: serve.Request JSON
//	POST /dse?mode=...                        body: serve.Request with thresholds
//	POST /eco?mode=...                        body: serve.Request with delta
//	GET  /jobs/{id}                           job snapshot (?mode=stream for NDJSON)
//	POST /jobs/{id}/cancel                    stop a queued or running job
//	GET  /healthz                             liveness
//	GET  /readyz                              readiness (503 while draining or saturated)
//	GET  /stats                               queue + cache counters
//	GET  /version                             build identity (module version, VCS revision)
//	GET  /metrics                             Prometheus text exposition (unless -metrics=false)
//
// Observability: -metrics (on by default) serves the Prometheus registry at
// GET /metrics — every counter it exports reads the same atomics as /stats.
// -debug-addr mounts net/http/pprof on a SEPARATE listener (keep it off the
// service port and firewalled; profiles expose internals). Logs are
// structured (log/slog): -log-level trims severity, -log-format=json emits
// one JSON object per line for log pipelines.
//
// On SIGTERM/SIGINT the daemon drains first — /readyz flips to 503 so load
// balancers divert traffic — then shuts the listener down gracefully and
// cancels whatever is still in flight.
//
// Persistence: -cache-dir names a directory for the disk-backed cache tier.
// Finished results and retained ECO bases are written behind the in-memory
// caches (write-behind, never on the request path) and reloaded on the next
// start, so a restarted daemon serves previously-computed requests as cache
// hits — POST /eco bases included. The disk keeps the newest -cache results
// and 8 ECO bases, as many as the caches hold after a restart. Corrupt or
// version-mismatched files are skipped, counted and deleted at warm start.
// Empty (the default) disables persistence.
//
// QoS: -qos-classes configures the priority classes as "name:weight,..."
// (first class is the default; requests pick one with the "class" field).
// Dispatch is weighted-fair across classes and round-robin across tenants
// within a class; the "tenant" request field or X-Tenant header names the
// tenant. -tenant-quota caps each tenant's outstanding jobs (429 past it;
// 0 = unlimited).
//
// Cluster mode: -peers lists the static member set as "id=url,..." (this
// node included) and -node-id names which entry is us. Cache keys then
// route over a consistent-hash ring — a sync request whose key hashes to a
// peer is forwarded there, so repeated invocations hit exactly one node's
// cache — and oversized partitioned jobs dispatch regions to peers (POST
// /internal/region), each dispatch bounded by a region timeout of 60s per
// 50k sinks. Every remote path degrades to local execution when a peer is
// down, hung or answering garbage (per-peer circuit breakers fed by
// /readyz probes and failed calls), and results are bit-identical to a
// single-node run.
// -cluster-secret authenticates the /internal/* peer endpoints; see
// DESIGN.md §9.
//
// -fault-spec arms the deterministic fault-injection registry (see
// internal/fault) for chaos testing a real deployment; leave it empty in
// production (the default, a zero-cost no-op).
//
// Example:
//
//	curl -s localhost:8577/synthesize -d '{"design":"C3"}'
//	curl -s localhost:8577/dse -d '{"design":"C4","thresholds":[50,200,800]}'
//	curl -s localhost:8577/metrics | grep dscts_jobs_total
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dscts/internal/clusterd"
	"dscts/internal/fault"
	"dscts/internal/obs"
	"dscts/internal/serve"
	"dscts/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8577", "listen address")
		maxRunning = flag.Int("max-running", 4, "jobs executing concurrently")
		maxQueued  = flag.Int("max-queued", 64, "admitted jobs waiting beyond the running set (admission control)")
		workers    = flag.Int("workers", 0, "total synthesis worker budget shared by running jobs (0 = all CPUs)")
		cacheSize  = flag.Int("cache", 128, "result cache capacity (entries, LRU); with -cache-dir also the results kept on disk")
		retain     = flag.Int("retain-jobs", 1024, "finished job records kept for GET /jobs/{id}")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job running wall-clock deadline (0 = none; requests can shorten it via timeout_ms)")
		wdGrace    = flag.Duration("watchdog-grace", 0, "how long a cancelled/expired job may keep running before its worker is force-reclaimed (0 = default 2s)")
		idemSize   = flag.Int("idem-entries", 0, "idempotency keys retained for deduplicating retried submissions (0 = default 512, negative disables)")
		cacheDir   = flag.String("cache-dir", "", "directory for the persistent cache tier (empty = in-memory only; results and ECO bases survive restarts when set)")
		qosClasses = flag.String("qos-classes", "", "QoS classes as name:weight,... — first is the default class (empty = interactive:3,batch:1)")
		tenQuota   = flag.Int("tenant-quota", 0, "max outstanding jobs per tenant (0 = unlimited)")
		metricsOn  = flag.Bool("metrics", true, "serve the Prometheus registry at GET /metrics")
		debugAddr  = flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled; never expose publicly)")
		logLevel   = flag.String("log-level", "info", "minimum log severity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		faultSpec  = flag.String("fault-spec", "", "fault-injection schedule for chaos testing, e.g. \"panic@serve.job:0.01\" (empty = disabled; see internal/fault)")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for -fault-spec (same spec + seed replays the same schedule)")
		peersFlag  = flag.String("peers", "", "cluster member list as id=url,id=url,... including this node (empty = single-node)")
		nodeID     = flag.String("node-id", "", "this node's ID within -peers (required with -peers)")
		clusterKey = flag.String("cluster-secret", "", "shared secret authenticating /internal/* peer calls (recommended with -peers)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsctsd:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	var reg *fault.Registry
	if *faultSpec != "" {
		if reg, err = fault.Parse(*faultSpec, *faultSeed); err != nil {
			logger.Error("bad -fault-spec", "error", err)
			os.Exit(1)
		}
		logger.Warn("FAULT INJECTION ARMED — never run this configuration in production",
			"spec", reg.String(), "seed", *faultSeed)
	}
	var metrics *obs.Registry
	if *metricsOn {
		metrics = obs.NewRegistry()
	}
	classes, err := serve.ParseQoSClasses(*qosClasses)
	if err != nil {
		logger.Error("bad -qos-classes", "error", err)
		os.Exit(1)
	}
	// Cluster mode: parse and validate the static member list up front so a
	// typo fails the boot, not the first forwarded request.
	var cluster *serve.ClusterConfig
	if *peersFlag != "" {
		peers, err := clusterd.ParsePeers(*peersFlag)
		if err != nil {
			logger.Error("bad -peers", "error", err)
			os.Exit(1)
		}
		if _, _, err := clusterd.SplitSelf(peers, *nodeID); err != nil {
			logger.Error("bad -node-id", "error", err)
			os.Exit(1)
		}
		if *clusterKey == "" {
			logger.Warn("cluster mode without -cluster-secret: /internal/* peer endpoints are unauthenticated")
		}
		cluster = &serve.ClusterConfig{NodeID: *nodeID, Peers: peers, Secret: *clusterKey}
	} else if *nodeID != "" {
		logger.Error("-node-id requires -peers")
		os.Exit(1)
	}
	// The daemon owns the store: opened before the server exists (whose
	// warm start verifies and loads it), closed — flushing the write-behind
	// tail — after the queue has fully drained.
	var st *store.Store
	if *cacheDir != "" {
		if st, err = store.Open(store.Config{Dir: *cacheDir, MaxResults: *cacheSize, Logger: logger}); err != nil {
			logger.Error("cannot open -cache-dir", "dir", *cacheDir, "error", err)
			os.Exit(1)
		}
		defer func() {
			if err := st.Close(); err != nil {
				logger.Error("store close failed", "error", err)
			}
		}()
	}
	srv := serve.NewServer(serve.Config{
		MaxRunning: *maxRunning, MaxQueued: *maxQueued,
		Workers: *workers, CacheEntries: *cacheSize, RetainJobs: *retain,
		JobTimeout: *jobTimeout, WatchdogGrace: *wdGrace,
		IdempotencyEntries: *idemSize, Faults: reg,
		QoSClasses: classes, TenantQuota: *tenQuota, Store: st,
		Metrics: metrics, Logger: logger, Cluster: cluster,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr)
	}

	errc := make(chan error, 1)
	go func() {
		build := obs.Build()
		logger.Info("listening",
			"addr", *addr, "max_running", *maxRunning, "max_queued", *maxQueued,
			"metrics", *metricsOn, "version", build.Version, "revision", build.Revision)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		if st != nil {
			st.Close() // os.Exit skips the deferred close
		}
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining and shutting down", "signal", sig.String())
		// Flip /readyz to 503 before closing the listener so load
		// balancers stop routing here while in-flight work finishes.
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("shutdown failed", "error", err)
			srv.Close()
			if st != nil {
				st.Close()
			}
			os.Exit(1)
		}
		srv.Close() // cancels in-flight jobs, joins runners
	}
}

// buildLogger assembles the process logger from the -log-level and
// -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// serveDebug mounts net/http/pprof on its own listener: profiling must
// never ride the service port (it bypasses the API surface and leaks
// internals), so the handlers are registered on a private mux bound to
// -debug-addr only.
func serveDebug(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof debug listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug listener failed", "error", err)
	}
}
