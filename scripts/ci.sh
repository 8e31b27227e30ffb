#!/bin/sh
# Full verification pipeline: build, vet, domain lint, tests, race tests,
# chaos smoke, perf-regression gate. Run from the repository root (make ci).
set -eux

go build ./...
go vet ./...
# Formatting gate: gofmt must list no Go file. The analyzer fixtures under
# testdata (some unparsable on purpose) and the benchmark's build directory
# are not the module's code.
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -exec gofmt -l {} +)
test -z "$unformatted"
# Domain lint, once: the text stream on stdout gates the build while the
# same run is archived as SARIF for code-scanning upload.
go run ./cmd/blocktri-lint -format text,sarif -sarif-out reports/lint.sarif ./...
go test ./...
go test -race ./...
# The portable kernels are the only ones on hosts without AVX-512, and the
# FMA kernels diverge from them in arithmetic: run the dense substrate and
# its solver and service layers on the portable path too. -count=1 because
# the kernel choice is read at package init, before the test cache records
# environment reads: a cached run would replay the FMA results above.
BLOCKTRI_NOAVX512=1 go test -count=1 ./internal/mat ./internal/core ./internal/serve
# Factor files are untrusted input: fuzz LoadFactor for a fixed 10 s,
# seeded with genuine factor files (FuzzLoadFactor). It must reject or
# load every input, never panic, and whatever it loads must solve.
go test ./internal/core -run '^$' -fuzz '^FuzzLoadFactor$' -fuzztime 10s
# Comm payloads and HTTP matrix bodies are untrusted too: each decoder
# must reject or decode every input without panicking, comm payloads
# must re-encode to themselves, and a registered matrix may hold no more
# values than its body has bytes.
go test ./internal/comm -run '^$' -fuzz '^FuzzTryDecodeMatrices$' -fuzztime 10s
go test ./cmd/blocktri-serve -run '^$' -fuzz '^FuzzMatrixJSON$' -fuzztime 10s
# Differential sweep (make verify): every solver, Dense LU included, over
# random (N, M, P, R) in every problem family, N < P included, each held
# to its residual bound, and ARD bit-identical to RD. Under a second.
go run ./cmd/blocktri-verify -trials 25
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
# the ARD solve (ARDSolve/R={1,4,64,256}: single, narrow and batched) and
# factor (ARDFactor/N=512,M=16,P=8 at the solve entries' configuration and
# ARDFactor/N=128,M=8,P=2 at the service's fresh-matrix shape), the
# GEMM kernel tiers including the skinny panel shapes the panelized solve
# issues, the unpacked narrow tier (GEMM/m=16,k=32,n={1,4}) and the packed
# width-1 tier of the one-column ARD step (MulAddPacked/m=16,k=32,n=1),
# the lint suite, and
# the serve warm-factor path (wider, budget-backed gates; see
# perf_serve.go). After an intentional perf change, refresh the baselines
# with `make bench-baseline`.
go run ./cmd/blocktri-bench -perf compare
