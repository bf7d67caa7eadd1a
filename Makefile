# Tier-1 verification and benchmarking entry points.
#
#   make ci          - build + vet + test + fuzz smoke (what the roadmap calls tier-1)
#   make race        - race detector on the determinism + corner + service + store + ECO + what-if suites, every golden pin, and par.Do with its sweep and placement callers
#   make perfbench-test - vet + unit tests of the benchmark module (perfbench/, its own go.mod)
#   make fuzz        - 10s fuzz smoke per fuzz target (DEF, LEF, request decoder, result payload, base snapshot, store read path, DP merge)
#   make golden      - golden-metrics regression suite (make golden-update re-pins)
#   make staticcheck - pinned staticcheck over the whole tree (fetches the tool)
#   make vulncheck   - pinned govulncheck over the whole tree (fetches the tool)
#   make smoke       - the Go-only CLI smoke suite (what CI runs, minus the XL job)
#   make bench       - the substrate, parallel-engine, partition, split, sign-off and refinement benchmarks, plus the request key, result checksum, result payload codec and cache hit
#   make report      - regenerate BENCH_parallel.json (the allocation baseline)
#   make chaos       - 30s seeded fault-injection soak under -race; the run asserts its own contract
#   make cluster     - 3-node in-process cluster run; the run asserts its own contract
#   make eco         - regenerate BENCH_eco.json (full vs incremental re-synthesis)
#
# Every benchgen contract run exits nonzero when its report lists a
# violation. One baseline gate, for both committed reports (used by CI and
# the nightly workflow):
#   go run ./cmd/benchgen -compare BENCH_parallel.json /tmp/new.json
#   go run ./cmd/benchgen -compare BENCH_eco.json /tmp/new.json

GO ?= go

# Pinned analysis-tool versions (resolved by `go run pkg@version`; CI relies
# on the module proxy, so bumps here are deliberate and reviewable).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test vet ci race perfbench-test fuzz golden golden-update staticcheck vulncheck smoke bench report chaos cluster eco

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
	$(GO) test -race -count=1 -run 'Determinism|Parallel|Corner|Partition|ECO|Golden' .
	$(GO) test -race -count=1 ./internal/serve/ ./internal/store/
	$(GO) test -race -count=1 ./internal/corner/
	$(GO) test -race -count=1 ./internal/core/ ./internal/partition/ ./internal/eco/
	$(GO) test -race -count=1 ./internal/eval/ ./internal/refine/
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -count=1 ./internal/insert/ ./internal/arena/
	$(GO) test -race -count=1 ./internal/par/ ./internal/dse/ ./internal/bench/

# The benchmark is its own module, so the root `go test ./...` never
# compiles it; this keeps its calls into the engine building.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# A worker that finds a new input minimizes it for up to -fuzzminimizetime
# (60 s by default), which would use up a 10 s smoke run; 1 s keeps it
# fuzzing.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseDEF -fuzztime 10s -fuzzminimizetime 1s ./internal/def
	$(GO) test -run xxx -fuzz FuzzParseLEF -fuzztime 10s -fuzzminimizetime 1s ./internal/lef
	$(GO) test -run xxx -fuzz FuzzRequestDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run xxx -fuzz FuzzResultPayload -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run xxx -fuzz FuzzBaseSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run xxx -fuzz FuzzStoreOpen -fuzztime 10s -fuzzminimizetime 1s ./internal/store
	$(GO) test -run xxx -fuzz FuzzParetoMerge -fuzztime 10s -fuzzminimizetime 1s ./internal/insert

golden:
	$(GO) test -run TestGolden .

golden-update:
	$(GO) test -run TestGolden -update .

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The Go-only CLI smoke suite, and the one list of these commands: CI's
# cli smoke job runs this target. It needs nothing but a Go toolchain.
smoke:
	$(GO) run ./cmd/dscts -design C4 -json | $(GO) run ./cmd/cismoke synth -sinks 1056
	$(GO) run ./cmd/dscts -design C3 -corners slow,typ,fast -json | $(GO) run ./cmd/cismoke corners
	$(GO) run ./cmd/dscts -design C4 -partition 300 -json | $(GO) run ./cmd/cismoke partition -max-region 300
	$(GO) run ./cmd/dscts -design C4 -move "7:150,150" -remove 3 -add "100,100" -json | $(GO) run ./cmd/cismoke synth -sinks 1056 -eco
	@! $(GO) run ./cmd/dscts -design NOPE -json 2>/dev/null || { echo "expected nonzero exit" >&2; exit 1; }
	@! $(GO) run ./cmd/dscts -design C4 -corners slow,wat -json 2>/dev/null || { echo "expected nonzero exit for bad corner" >&2; exit 1; }
	@! $(GO) run ./cmd/dscts -design C4 -partition 300 -partition-strategy voronoi -json 2>/dev/null || { echo "expected nonzero exit for bad strategy" >&2; exit 1; }
	@! $(GO) run ./cmd/dscts -design C4 -remove 1056 -json 2>/dev/null || { echo "expected nonzero exit for bad delta" >&2; exit 1; }

# The chaos soak runs under the race detector: a data race surfaced by
# injected panics/hangs is exactly what this gate exists to catch. The run
# fails on any violated contract, /metrics-vs-/stats included.
chaos:
	$(GO) run -race ./cmd/benchgen -load -chaos default -duration 30s

# The 3-node cluster run: routed load over the ring, an XL job whose
# regions all execute on peers, and a kill-one-node recovery phase. The run
# fails on lost jobs, broken forward or region accounting, or a leak.
cluster:
	$(GO) run ./cmd/benchgen -load -cluster 3

# One worker at GOMAXPROCS=1: the CI and nightly gates compare speedups
# against this baseline (each the median of full/ECO ratios timed in
# interleaved pairs), those ratios are not worker-count invariant, and
# `benchgen -compare` refuses reports recorded at a different goos, goarch
# or gomaxprocs.
eco:
	GOMAXPROCS=1 $(GO) run ./cmd/benchgen -eco-out BENCH_eco.json

bench:
	$(GO) test -run xxx -bench 'BenchmarkSubstrates|BenchmarkParallelSynthesize|BenchmarkPartitionSynthesize|BenchmarkSplit|BenchmarkCornerSignoff|BenchmarkFig11SkewRefinement' -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkRequestKey|BenchmarkResultChecksum|BenchmarkResultPersist|BenchmarkCacheHit' -benchmem ./internal/serve/

# Pinned to GOMAXPROCS=1: CI's allocs-gate re-measures at GOMAXPROCS=1,
# and `benchgen -compare` refuses reports recorded at a different goos,
# goarch or gomaxprocs.
report:
	GOMAXPROCS=1 $(GO) run ./cmd/benchgen -bench -bench-out BENCH_parallel.json
