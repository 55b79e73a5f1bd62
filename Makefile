GO ?= go

.PHONY: all build test race bench-test bench-gate fmt-check figures lint lint-write-golden staticcheck govulncheck

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo benchmark (BENCHMARK.json) is its own module under benchmark/, so
# build/test above do not compile it. Vet it, run its tests, and smoke one
# observed workload for two seconds without the traced pass. The script allows
# one expected failure (exec.queues_per_call = 0, see its header) and nothing
# else.
bench-test:
	bash scripts/bench-test.sh

# Benchmark the merge-base and this checkout, each built in a directory of its
# own, every workload short, and fail on what repeats exactly: a worse
# allocs_per_call or bytes_per_call, a moved perfmodel.* value, a failed
# operation. Timings are printed, not gated. `make bench-gate BASE=<commit>`
# compares against another commit. About ten minutes.
bench-gate:
	bash scripts/bench-gate.sh $(BASE)

# gofmt -l prints the files it would rewrite; any name is a failure.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Figures are tests: regenerate all six results/*.txt with the commands
# EXPERIMENTS.md lists and diff each against the committed file, cheapest
# first. The simulations are deterministic, so any difference is a change in
# what the engine computes. sortbench and hbasebench run for tens of minutes;
# `go test ./internal/bench` covers rpcbench and profilerpc in process.
figures:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	regen() { out=$$1; shift; echo "figures: results/$$out"; \
		$(GO) run "$$@" > "$$tmp/$$out"; diff -u "results/$$out" "$$tmp/$$out"; }; \
	regen cloudburst.txt ./cmd/cloudburst; \
	regen profile.txt ./cmd/profilerpc; \
	regen rpcbench.txt ./cmd/rpcbench; \
	regen hdfs.txt ./cmd/hdfsbench; \
	regen sort.txt ./cmd/sortbench; \
	regen hbase.txt ./cmd/hbasebench -ops 64000

# Static analysis (DESIGN.md S20/S25): the project's own four analyzers —
# determinism, metricnames, statusexhaustive, and regmem, which rides the
# SSA-lite CFGs. Fails on any finding; fix the code or, for a legitimate
# wall-clock read, add a justified //lint:wallclock marker. One analyzer
# alone: go run ./cmd/rpcoiblint -only regmem ./...
lint:
	$(GO) run ./cmd/rpcoiblint ./...

# Regenerate internal/faultsim/testdata/metric_names.golden from the static
# view after deliberately adding or removing a metric family.
lint-write-golden:
	$(GO) run ./cmd/rpcoiblint -write-metric-golden ./...

# Optional third-party analyzers: run when installed, skip otherwise (offline
# build environments cannot `go install` new tools).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi
