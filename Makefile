GO ?= go

.PHONY: all build test race bench-test lint lint-ssa lint-write-golden staticcheck govulncheck

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo benchmark (BENCHMARK.json) is its own module under benchmark/, so
# build/test above do not compile it. Vet it, run its tests, and smoke one
# observed workload for two seconds without the traced pass.
bench-test:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	bash benchmark/run.sh --workload real_observed --seconds 2 --trace 0

# Static analysis (DESIGN.md S20/S25): the project's own analyzer suite —
# determinism, poolpair, metricnames, lockcall, statusexhaustive, plus the
# SSA-lite interprocedural trio atomicguard, regmem, goroutineleak. Fails on
# any finding; fix the code or add a justified marker (//lint:wallclock,
# //lint:atomicinit, //lint:goroutine).
lint:
	$(GO) run ./cmd/rpcoiblint ./...

# Just the SSA-lite interprocedural analyzers (DESIGN.md S25) — the slow
# half of the suite, isolated for iterating on dataflow changes.
lint-ssa:
	$(GO) run ./cmd/rpcoiblint -only atomicguard,regmem,goroutineleak ./...

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
