package core

import (
	"fmt"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// Solver is the one interface of every block tridiagonal solver in this
// package. Right-hand sides are stacked: b has shape (N*M) x R — R
// right-hand sides solved in one batched call — and the solution has the
// same shape. Every solver splits a matrix phase (Factor) from a
// right-hand-side phase (Solve, SolveTo) and reports the cost of each.
type Solver interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Factor runs the matrix-dependent phase once; later calls return nil.
	// Solve and SolveTo factor on first use.
	Factor() error
	// Factored reports whether Factor has completed.
	Factored() bool
	// Solve returns a freshly allocated x with A*x = b.
	Solve(b *mat.Matrix) (*mat.Matrix, error)
	// SolveTo solves A*x = b into the caller-owned x, which must have b's
	// shape and must not alias b.
	SolveTo(x, b *mat.Matrix) error
	// Stats returns the cost of the most recent solve.
	Stats() SolveStats
	// FactorStats returns the cost of Factor; solves leave it unchanged.
	FactorStats() SolveStats
	// Matrix returns the system matrix the solver was built for.
	Matrix() *blocktri.Matrix
}

// SolveStats describes the cost of a solver's Factor call or of its most
// recent solve.
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
	// later solves (zero for RD, which has no factor phase, and for Solve
	// stats). It quantifies the storage cost of the factor/solve trade.
	StoredBytes int64
	// PrefixGrowth is the Frobenius norm of the global transfer-matrix
	// prefix product (RD and ARD only; zero otherwise). Rounding error in
	// the prefix-based solvers is amplified by roughly this factor times
	// machine epsilon, so it doubles as a conditioning diagnostic: values
	// near 1..N indicate a stable recurrence, exponentially large values
	// indicate the solution will lose digits accordingly.
	PrefixGrowth float64
}

// phases is what a solver plugs into base: its matrix phase and its
// right-hand-side phase. base runs factor until it succeeds once, and solve
// only after it, with a checked b and a destination of b's shape. Each
// records its counts in the base's stats; base adds the wall time.
type phases interface {
	factor() error
	solve(x, b *mat.Matrix) error
}

// rankPhases is implemented by the solvers whose phases run on every rank
// of a world, through drive. Each returns the rank's analytic flop count
// and the error the rank raised itself.
type rankPhases interface {
	factorRank(c *comm.Comm) (int64, error)
	solveRank(c *comm.Comm, x, b *mat.Matrix) (int64, error)
}

// base is the skeleton every solver embeds: the matrix and world, the
// factored flag, the factor and solve stats, the per-rank arenas, and the
// phase driver. It implements every Solver method except Name.
type base struct {
	a           *blocktri.Matrix
	world       *comm.World // nil for the sequential solvers
	ph          phases
	factored    bool
	factorStats SolveStats
	solveStats  SolveStats
	slots       []rankSlot // one per rank of the world (one if sequential)

	// Driver state, built once by init so a warm phase allocates nothing:
	// the phase's arguments (x is nil in the factor phase) and the Run
	// body.
	ranks rankPhases
	x, b  *mat.Matrix
	run   func(c *comm.Comm)
}

// rankSlot is one rank's share of the skeleton: its scratch arena, reset
// at the start of every phase, and the result of the phase in flight.
// After a warm-up solve has grown the arena to its high-water mark, a solve
// that checks its storage out of it allocates nothing.
type rankSlot struct {
	ws    *mat.Workspace
	flops int64
	err   error
}

// init sets up the skeleton for matrix a over world w (nil for a
// sequential solver) with ph, the embedding solver, supplying the phases.
func (s *base) init(a *blocktri.Matrix, w *comm.World, ph phases) {
	s.a, s.world, s.ph = a, w, ph
	p := 1
	if w != nil {
		p = w.P
	}
	s.slots = make([]rankSlot, p)
	for r := range s.slots {
		s.slots[r].ws = mat.NewWorkspace()
	}
	if w == nil {
		return
	}
	s.ranks = ph.(rankPhases)
	s.run = func(c *comm.Comm) {
		sl := &s.slots[c.Rank()]
		if s.x == nil {
			sl.flops, sl.err = s.ranks.factorRank(c)
		} else {
			sl.flops, sl.err = s.ranks.solveRank(c, s.x, s.b)
		}
	}
}

// Matrix implements Solver.
func (s *base) Matrix() *blocktri.Matrix { return s.a }

// Factored implements Solver.
func (s *base) Factored() bool { return s.factored }

// FactorStats implements Solver.
func (s *base) FactorStats() SolveStats { return s.factorStats }

// Stats implements Solver.
func (s *base) Stats() SolveStats { return s.solveStats }

// Factor implements Solver: it runs the solver's matrix phase once.
func (s *base) Factor() error {
	if s.factored {
		return nil
	}
	start := time.Now()
	if err := s.ph.factor(); err != nil {
		return err
	}
	s.factored = true
	s.factorStats.Wall = time.Since(start)
	return nil
}

// Solve implements Solver. The result is freshly allocated; callers that
// solve repeatedly should use SolveTo with a reused destination.
func (s *base) Solve(b *mat.Matrix) (*mat.Matrix, error) {
	if err := checkRHS(s.a, b); err != nil {
		return nil, err
	}
	//lint:ignore hotalloc Solve returns a caller-owned result; SolveTo is the reuse path
	x := mat.New(b.Rows, b.Cols)
	if err := s.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo implements Solver. It factors on first use.
func (s *base) SolveTo(x, b *mat.Matrix) error {
	if err := checkRHS(s.a, b); err != nil {
		return err
	}
	if x.Rows != b.Rows || x.Cols != b.Cols {
		return fmt.Errorf("%w: destination %dx%d for %dx%d right-hand side", ErrShape, x.Rows, x.Cols, b.Rows, b.Cols)
	}
	if err := s.Factor(); err != nil {
		return err
	}
	start := time.Now()
	if err := s.ph.solve(x, b); err != nil {
		return err
	}
	s.solveStats.Wall = time.Since(start)
	return nil
}

// drive is the one phase driver of the distributed solvers. It runs the
// factor phase (x nil) or the solve phase into x for b on every rank:
// it zeroes the world's counters, resets every rank's arena, runs the
// phase, and records the merged per-rank flops and the communication
// totals in the factor or solve stats. A rank's own error takes precedence
// over the run's, the lowest rank's first.
func (s *base) drive(x, b *mat.Matrix) error {
	w := s.world
	w.ResetTotals()
	for r := range s.slots {
		s.slots[r].ws.Reset()
		s.slots[r].err = nil
	}
	s.x, s.b = x, b
	runErr := w.Run(s.run)
	s.x, s.b = nil, nil
	for _, sl := range s.slots {
		if sl.err != nil {
			return sl.err
		}
	}
	if runErr != nil {
		return runErr
	}
	st := SolveStats{Comm: w.TotalStats(), MaxSimComm: w.MaxSimCommTime()}
	for _, sl := range s.slots {
		st.Flops += sl.flops
		st.MaxRankFlops = max(st.MaxRankFlops, sl.flops)
	}
	if x == nil {
		s.factorStats = st
	} else {
		s.solveStats = st
	}
	return nil
}

// agree is the collective error barrier: it reports whether no rank passed
// an error, so that every rank abandons a phase together instead of
// deadlocking when one fails. The failing rank returns its error to drive.
func agree(c *comm.Comm, err error) bool {
	flag := 0.0
	if err != nil {
		flag = 1
	}
	return c.Allreduce([]float64{flag}, comm.OpMax)[0] == 0
}

// oneRank is the stats of a phase that ran on one rank.
func oneRank(flops int64) SolveStats { return SolveStats{Flops: flops, MaxRankFlops: flops} }

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
