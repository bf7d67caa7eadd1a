# Tier-1 verification and benchmarking entry points.
#
#   make ci          - build + vet + test + fuzz smoke (what the roadmap calls tier-1)
#   make race        - race detector on the determinism + corner + service + ECO + what-if suites
#   make perfbench-test - vet + unit tests of the benchmark module (perfbench/, its own go.mod)
#   make fuzz        - 10s fuzz smoke per parser target (DEF, LEF)
#   make golden      - golden-metrics regression suite (make golden-update re-pins)
#   make staticcheck - pinned staticcheck over the whole tree (fetches the tool)
#   make vulncheck   - pinned govulncheck over the whole tree (fetches the tool)
#   make smoke       - the Go-only CLI smoke suite (what CI runs, minus the XL job)
#   make bench       - the substrate + parallel-engine + partition benchmarks
#   make report      - regenerate BENCH_parallel.json
#   make load        - regenerate BENCH_serve.json (service load test)
#   make chaos       - 30s seeded fault-injection soak under -race + report gate (BENCH_chaos.json)
#   make metrics     - short load run + observability gate: /metrics scrape must match /stats
#   make persist     - regenerate BENCH_persist.json (warm-vs-cold restart) + persist gate
#   make corners     - regenerate BENCH_corners.json (multi-corner sign-off scaling)
#   make scale       - regenerate BENCH_scale.json (mono vs partition-parallel XL scaling)
#   make eco         - regenerate BENCH_eco.json (full vs incremental re-synthesis)
#
# Bench regression gate (used by CI and the nightly workflow):
#   go run ./cmd/benchgen -compare BENCH_eco.json /tmp/new.json -max-regress 15%

GO ?= go

# Pinned analysis-tool versions (resolved by `go run pkg@version`; CI relies
# on the module proxy, so bumps here are deliberate and reviewable).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test vet ci race perfbench-test fuzz golden golden-update staticcheck vulncheck smoke bench report load chaos cluster metrics persist corners scale eco

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

ci: build vet test fuzz

race:
	$(GO) test -race -count=1 -run 'Determinism|Parallel|Corner|Partition|ECO' .
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 ./internal/corner/
	$(GO) test -race -count=1 ./internal/core/ ./internal/partition/ ./internal/eco/
	$(GO) test -race -count=1 ./internal/eval/ ./internal/refine/
	$(GO) test -race -count=1 ./internal/cluster/

# The benchmark is its own module, so the root `go test ./...` never
# compiles it; this keeps its calls into the engine building.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fuzz:
	$(GO) test -run xxx -fuzz FuzzParseDEF -fuzztime 10s ./internal/def
	$(GO) test -run xxx -fuzz FuzzParseLEF -fuzztime 10s ./internal/lef

golden:
	$(GO) test -run TestGoldenMetrics .

golden-update:
	$(GO) test -run TestGoldenMetrics -update .

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The Go-only CLI smoke suite: every assertion the workflow runs through
# cmd/cismoke, so it works on any runner with nothing but a Go toolchain.
smoke:
	$(GO) run ./cmd/dscts -design C4 -json | $(GO) run ./cmd/cismoke synth -sinks 1056
	$(GO) run ./cmd/dscts -design C3 -corners slow,typ,fast -json | $(GO) run ./cmd/cismoke corners
	$(GO) run ./cmd/dscts -design C4 -partition 300 -json | $(GO) run ./cmd/cismoke partition -max-region 300
	$(GO) run ./cmd/dscts -design C4 -move "7:150,150" -remove 3 -add "100,100" -json | $(GO) run ./cmd/cismoke synth -sinks 1056 -eco
	$(GO) run ./cmd/cismoke scale BENCH_scale.json
	$(GO) run ./cmd/cismoke eco -design C3 -pct 1 -min-speedup 5 BENCH_eco.json
	@! $(GO) run ./cmd/dscts -design NOPE -json 2>/dev/null || { echo "expected nonzero exit" >&2; exit 1; }
	@! $(GO) run ./cmd/dscts -design C4 -corners slow,wat -json 2>/dev/null || { echo "expected nonzero exit for bad corner" >&2; exit 1; }
	@! $(GO) run ./cmd/dscts -design C4 -partition 300 -partition-strategy voronoi -json 2>/dev/null || { echo "expected nonzero exit for bad strategy" >&2; exit 1; }
	@! $(GO) run ./cmd/dscts -design C4 -remove 1056 -json 2>/dev/null || { echo "expected nonzero exit for bad delta" >&2; exit 1; }

load:
	$(GO) run ./cmd/benchgen -load

# The chaos soak runs under the race detector: a data race surfaced by
# injected panics/hangs is exactly what this gate exists to catch.
chaos:
	$(GO) run -race ./cmd/benchgen -load -chaos default -duration 30s
	$(GO) run ./cmd/cismoke chaos BENCH_chaos.json
	$(GO) run ./cmd/cismoke metrics BENCH_chaos.json

# The 3-node cluster benchmark + gate: routed load over the ring, an XL
# job whose regions all execute on peers, and a kill-one-node recovery
# phase. The gate requires >= 2.5x the committed single-node throughput
# baseline, zero lost jobs, counter consistency and zero leaks.
cluster:
	$(GO) run ./cmd/benchgen -load -cluster 3
	$(GO) run ./cmd/cismoke cluster -min-ratio 2.5 -baseline BENCH_serve.json BENCH_cluster.json

# The observability consistency gate: replay a short load against an
# in-process daemon, then require the /metrics scrape embedded in the
# report to agree with its /stats snapshot counter-for-counter (they read
# the same atomics, so any drift is an exporter-wiring regression).
metrics:
	$(GO) run ./cmd/benchgen -load -load-jobs 40 -load-conc 8 -load-out /tmp/BENCH_serve_metrics.json
	$(GO) run ./cmd/cismoke metrics /tmp/BENCH_serve_metrics.json

# The persistence gate: replay a workload cold, restart the daemon over the
# same cache directory, and require every replayed request to come back as a
# warm hit — including an ECO delta the first process never saw, which only
# the persisted base snapshot can explain.
persist:
	$(GO) run ./cmd/benchgen -persist -persist-out BENCH_persist.json
	$(GO) run ./cmd/cismoke persist BENCH_persist.json

corners:
	$(GO) run ./cmd/benchgen -corners-out BENCH_corners.json

scale:
	$(GO) run ./cmd/benchgen -scale-out BENCH_scale.json -scale-workers 8

# Pinned to one worker: the CI and nightly regression gates re-measure at
# -eco-workers 1 and compare speedup ratios against this baseline, and
# those ratios are not worker-count invariant.
eco:
	$(GO) run ./cmd/benchgen -eco-out BENCH_eco.json -eco-workers 1

bench:
	$(GO) test -run xxx -bench 'BenchmarkSubstrates|BenchmarkParallelSynthesize|BenchmarkPartitionSynthesize' -benchmem .

# Pinned to GOMAXPROCS=1: CI's allocs-gate re-measures at GOMAXPROCS=1,
# and `cismoke allocs` refuses reports recorded at different gomaxprocs.
report:
	GOMAXPROCS=1 $(GO) run ./cmd/benchgen -bench -bench-out BENCH_parallel.json
