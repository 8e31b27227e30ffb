package core

import (
	"time"

	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// Solver is the common interface of every block tridiagonal solver in this
// repository. Solve accepts a stacked right-hand-side matrix b of shape
// (N*M) x R — R right-hand sides solved in one batched call — and returns
// the solution with the same shape.
type Solver interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Solve returns x with A*x = b.
	Solve(b *mat.Matrix) (*mat.Matrix, error)
}

// Factored is implemented by solvers that split matrix-dependent
// preprocessing (Factor) from per-right-hand-side work (Solve). Factor is
// idempotent; Solve implicitly factors on first use.
type Factored interface {
	Solver
	// Factor performs the matrix-dependent precomputation.
	Factor() error
	// Factored reports whether Factor has completed.
	Factored() bool
}

// SolveStats describes the cost of the most recent Factor or Solve call of
// a solver that tracks instrumentation.
type SolveStats struct {
	// Flops is the total analytic floating-point operation count across
	// all ranks.
	Flops int64
	// MaxRankFlops is the largest per-rank count: the compute critical
	// path of a bulk-synchronous step.
	MaxRankFlops int64
	// Comm aggregates message counts and bytes across all ranks.
	Comm comm.Stats
	// MaxSimComm is the largest per-rank simulated (alpha-beta model)
	// communication time in seconds.
	MaxSimComm float64
	// Wall is the measured wall-clock duration.
	Wall time.Duration
	// StoredBytes is the memory retained by a Factor call for reuse in
	// later solves (zero for solvers without a factor/solve split and for
	// Solve stats). It quantifies the storage cost of the factor/solve
	// trade.
	StoredBytes int64
	// PrefixGrowth is the Frobenius norm of the global transfer-matrix
	// prefix product (RD and ARD only; zero otherwise). Rounding error in
	// the prefix-based solvers is amplified by roughly this factor times
	// machine epsilon, so it doubles as a conditioning diagnostic: values
	// near 1..N indicate a stable recurrence, exponentially large values
	// indicate the solution will lose digits accordingly.
	PrefixGrowth float64
}

// flopCounter accumulates an analytic operation count on one rank.
type flopCounter struct{ n int64 }

// Standard dense kernel costs in flops.
func luFlops(n int) int64         { return 2 * int64(n) * int64(n) * int64(n) / 3 }
func luSolveFlops(n, r int) int64 { return 2 * int64(n) * int64(n) * int64(r) }
func gemmFlops(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
func addFlops(m, n int) int64     { return int64(m) * int64(n) }

func (f *flopCounter) add(n int64) { f.n += n }

// matBytes returns the retained payload size of a matrix (nil-safe).
func matBytes(m *mat.Matrix) int64 {
	if m == nil {
		return 0
	}
	return 8 * int64(len(m.Data))
}

// luBytes returns the retained size of an M x M LU factorization: the
// packed factors plus the pivot vector.
func luBytes(m int) int64 { return 8*int64(m)*int64(m) + 8*int64(m) }

// packBytes returns the retained size of a packed operand (0 for the zero
// PackedA, which has no rows).
func packBytes(p mat.PackedA) int64 { return 8 * int64(mat.PackALen(p.Rows(), p.K())) }

// mergeRankFlops folds per-rank counters into total and critical-path
// figures on a SolveStats.
func (s *SolveStats) mergeRankFlops(perRank []int64) {
	s.Flops, s.MaxRankFlops = 0, 0
	for _, n := range perRank {
		s.Flops += n
		if n > s.MaxRankFlops {
			s.MaxRankFlops = n
		}
	}
}
