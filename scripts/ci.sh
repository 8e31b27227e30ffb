#!/bin/sh
# Full verification pipeline: build, vet, domain lint, tests, race tests,
# chaos smoke, perf-regression gate. Run from the repository root (make ci).
set -eux

go build ./...
go vet ./...
# Domain lint, once: the text stream on stdout gates the build while the
# same run is archived as SARIF for code-scanning upload. Incremental by
# default — only packages whose content or dependencies changed since the
# last run are re-analyzed (.blocktri-lint-cache/; -no-cache forces cold).
go run ./cmd/blocktri-lint -format text,sarif -sarif-out reports/lint.sarif ./...
# Performance-contract pass, archived on its own: just the compiler-evidence
# quartet (perfescape, perfbce, perfinline, asmcheck), so code scanning gets
# a report scoped to the perf contracts next to the full-suite one. The
# full-suite run above already computed and cached the compiler fact table,
# so this pass replays it instead of re-invoking the toolchain.
go run ./cmd/blocktri-lint -analyzers perfescape,perfbce,perfinline,asmcheck \
	-format text,sarif -sarif-out reports/lint-perf.sarif ./...
go test ./...
go test -race ./...
# The portable kernels are the only ones on hosts without AVX-512, and the
# FMA kernels diverge from them in arithmetic: run the dense substrate and
# its solver and service layers on the portable path too.
BLOCKTRI_NOAVX512=1 go test ./internal/mat ./internal/core ./internal/serve
# Chaos smoke: a fixed-seed fault-injection campaign over every solver.
# The invariant (docs/RESILIENCE.md): each trial ends in a correct solution
# or a clean typed error — never a hang, never a silent wrong answer.
go run ./cmd/blocktri-chaos -seed 1 -plans 32
# Service chaos, under the race detector: concurrent tenants against a
# fault-injected blocktri-serve backend. Every request must end in a correct
# solution or a clean typed error within deadline — no hangs, no goroutine
# leaks, no cross-tenant stalls (make serve-chaos).
go run -race ./cmd/blocktri-chaos -service -seed 1 -tenants 5 -requests 120
# Perf gate: re-measure the hot paths and fail on >15% ns/op regression or
# any allocs/op increase against the committed BENCH_*.json baselines —
# the ARD solve (ARDSolve/R={1,4,64,256}: single, narrow and batched), the
# GEMM kernel tiers including the skinny panel shapes the panelized solve
# issues and the narrow tier (GEMM/m=16,k=32,n={1,4}), the lint suite, and
# the serve warm-factor path (wider, budget-backed gates; see
# perf_serve.go). After an intentional perf change, refresh the baselines
# with `make bench-baseline`.
go run ./cmd/blocktri-bench -perf compare
