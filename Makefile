# blocktri build / test / experiment targets.

GO ?= go

.PHONY: all build vet lint lint-sarif lint-concurrency lint-perf test race bench bench-panel bench-baseline bench-compare verify chaos chaos-soak serve-chaos experiments experiments-quick ci clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/blocktri-lint ./...

# Same findings as `lint`, rendered as SARIF 2.1.0 for code-scanning UIs.
lint-sarif:
	mkdir -p reports
	$(GO) run ./cmd/blocktri-lint -format sarif ./... > reports/lint.sarif

# Just the concurrency-safety trio (goroutine leaks, lock ordering,
# context flow) — a quick gate while working on the service stack.
lint-concurrency:
	$(GO) run ./cmd/blocktri-lint -analyzers goleak,lockorder,ctxflow ./...

# Just the performance-contract quartet (escape, bounds-check, inlining,
# assembly ABI). Each run invokes the Go toolchain once for compiler
# evidence (seconds, mostly replayed from the go build cache).
lint-perf:
	$(GO) run ./cmd/blocktri-lint -analyzers perfescape,perfbce,perfinline,asmcheck ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci:
	./scripts/ci.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# The panelized solve-phase hot paths only: the batched ARD solve
# (R in {1, 64, 256}) and the GEMM kernel across the dispatch tiers,
# including the skinny M x R panel shapes the solve actually issues.
bench-panel:
	$(GO) test -run '^$$' -bench 'BenchmarkARDSolve|BenchmarkKernelGEMM' -benchmem .

# Refresh the committed perf baselines (BENCH_*.json) after an intentional
# performance change; ci compares against them and fails on regression.
bench-baseline:
	$(GO) run ./cmd/blocktri-bench -perf baseline

bench-compare:
	$(GO) run ./cmd/blocktri-bench -perf compare

verify:
	$(GO) run ./cmd/blocktri-verify -trials 25

# Fault-injection campaign (see docs/RESILIENCE.md). `chaos` is the fixed-
# seed CI smoke; `chaos-soak` is a longer randomized-seed soak for local use.
chaos:
	$(GO) run ./cmd/blocktri-chaos -seed 1 -plans 32

chaos-soak:
	$(GO) run ./cmd/blocktri-chaos -seed $$(date +%s) -plans 256

# Service-level campaign: concurrent tenants against a fault-injected
# blocktri-serve backend, run under the race detector. Asserts every request
# ends in a correct solution or a clean typed error within deadline — no
# hangs, no goroutine leaks, no cross-tenant stalls.
serve-chaos:
	$(GO) run -race ./cmd/blocktri-chaos -service -seed 1 -tenants 5 -requests 120

experiments:
	$(GO) run ./cmd/blocktri-bench -exp all -csv results

experiments-quick:
	$(GO) run ./cmd/blocktri-bench -exp all -quick

clean:
	rm -rf results reports transport.ardf
