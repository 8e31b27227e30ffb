// Benchmarks for the dense kernels and the allocation-free ARD solve, plus
// a sanity guard on the benchmark workload. Run with:
//
//	go test -run '^$' -bench . -benchmem .
//
// The experiment tables (E1..E13, see DESIGN.md) come from
// cmd/blocktri-bench -exp EN.
package blocktri_test

import (
	"fmt"
	"math/rand"
	"testing"

	"blocktri"
	"blocktri/internal/mat"
	"blocktri/internal/workload"
)

// benchMatrix builds the standard benchmark workload (oscillatory family:
// stable recurrence, so large N neither overflows nor stalls on
// subnormals).
func benchMatrix(n, m int) *blocktri.Matrix {
	return workload.Build(workload.Oscillatory, n, m, 1)
}

func benchRHS(a *blocktri.Matrix, r int, seed int64) *blocktri.DenseMatrix {
	return a.RandomRHS(r, rand.New(rand.NewSource(seed)))
}

// Substrate microbenchmarks: the dense kernels every solver sits on.
// Square shapes cover the dispatch tiers; the m=32,k=32 skinny panels are
// the shapes the panelized ARD solve phase issues per transfer half.
func BenchmarkKernelGEMM(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{16, 16, 16}, {32, 32, 32}, {64, 64, 64}, {128, 128, 128},
		{32, 32, 64}, {32, 32, 256},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(12))
		x, y, z := mat.Random(sh.m, sh.k, rng), mat.Random(sh.k, sh.n, rng), mat.New(sh.m, sh.n)
		name := fmt.Sprintf("n=%d", sh.n)
		if sh.m != sh.n {
			name = fmt.Sprintf("m=%d,k=%d,n=%d", sh.m, sh.k, sh.n)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.Mul(z, x, y)
			}
			b.ReportMetric(2*float64(sh.m)*float64(sh.k)*float64(sh.n), "flops/op")
		})
	}
}

func BenchmarkKernelLU(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		rng := rand.New(rand.NewSource(13))
		a := mat.RandomDiagDominant(n, 1, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mat.Factor(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Guard: the benchmark workload must be numerically sane, otherwise the
// timings would measure Inf/NaN propagation instead of real arithmetic.
func TestBenchmarkWorkloadSanity(t *testing.T) {
	a := benchMatrix(512, 16)
	rhs := benchRHS(a, 1, 2)
	ard := blocktri.NewARD(a, blocktri.Config{World: blocktri.NewWorld(8)})
	x, err := ard.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if rr := a.RelResidual(x, rhs); rr > 1e-9 {
		t.Fatalf("benchmark workload residual %v too large", rr)
	}
}

// BenchmarkARDSolve is the perf-regression anchor for the allocation-free
// solve path (cmd/blocktri-bench -perf tracks the same configuration): the
// headline N=512, M=16, P=8 system solved into a reused destination for a
// single right-hand side and for panelized batches of 64 and 256, plus the
// one-right-hand-side time-stepping shape of _perfbench's step workload
// (P=2, R=1), whose CPU profile is one run away:
//
//	go test -run '^$' -bench 'ARDSolve/P=2,R=1' -cpuprofile cpu.out .
//
// After the warm-up solve the path performs zero heap allocations per op.
func BenchmarkARDSolve(b *testing.B) {
	a := benchMatrix(512, 16)
	for _, c := range []struct {
		name string
		p, r int
	}{{"R=1", 8, 1}, {"R=64", 8, 64}, {"R=256", 8, 256}, {"P=2,R=1", 2, 1}} {
		b.Run(c.name, func(b *testing.B) {
			world := blocktri.NewWorld(c.p)
			defer world.Close()
			ard := blocktri.NewARD(a, blocktri.Config{World: world})
			if err := ard.Factor(); err != nil {
				b.Fatal(err)
			}
			rhs := benchRHS(a, c.r, 2)
			x := blocktri.NewDenseMatrix(rhs.Rows, rhs.Cols)
			if err := ard.SolveTo(x, rhs); err != nil { // warm the arenas
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ard.SolveTo(x, rhs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ard.Stats().Flops), "flops/op")
		})
	}
}
