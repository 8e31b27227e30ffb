// Package blocktri is the public API of the accelerated recursive doubling
// library: parallel solvers for block tridiagonal systems of linear
// equations, reproducing S. Seal, "An Accelerated Recursive Doubling
// Algorithm for Block Tridiagonal Systems", IPDPS 2014.
//
// A block tridiagonal system has N block rows with M x M blocks:
//
//	L[i] x[i-1] + D[i] x[i] + U[i] x[i+1] = b[i],  i = 0..N-1
//
// Five solvers, and Auto which picks among them, share the Solver
// interface: Factor runs the matrix phase once, Solve and SolveTo the
// right-hand-side phase, and FactorStats and Stats report the cost of each.
//
//   - NewThomas: sequential block LU (the serial work-optimal baseline)
//   - NewRD: classic recursive doubling over a rank communicator
//   - NewARD: the paper's accelerated recursive doubling, which factors
//     the matrix-dependent prefix computation once and then solves each
//     right-hand side with only O(M^2 (N/P + log P)) work — an O(R)
//     improvement when R right-hand sides share one matrix.
//   - NewSpike: the SPIKE partition method, the numerically stable
//     parallel baseline with the same factor/solve split
//   - NewDense: dense LU, the reference for tests
//
// Quick start (Example runs it and checks the residual):
//
//	rng := rand.New(rand.NewSource(1))
//	a := blocktri.NewOscillatory(1024, 16, rng) // 1024 block rows of 16x16
//	world := blocktri.NewWorld(8)               // 8 communicating ranks
//	solver := blocktri.NewARD(a, blocktri.Config{World: world})
//	b := a.RandomRHS(4, rng)                    // (N*M) x R stacked, R = 4
//	x, err := solver.Solve(b)
//
// Numerical caveat: RD and ARD propagate the three-term block recurrence
// through transfer-matrix prefix products, so their rounding error scales
// with the growth of those products (reported as SolveStats.PrefixGrowth).
// They are accurate at any N on stable-recurrence workloads (transport
// sweeps, the Oscillatory family) and lose digits exponentially in N on
// matrices whose recurrence modes grow — e.g. strongly diagonally dominant
// systems such as an isotropic Laplacian; use Thomas or SPIKE there.
// Strongly anisotropic diffusion sits in between: its modes grow slowly,
// but the growth still rises exponentially with N (PrefixGrowth about 8e3
// at 32 block rows, 4e6 at 64 and 1e12 at 128 for
// NewAnisotropicDiffusion(64, N, 0.01)), so ARD is accurate there only for
// modest N. Check PrefixGrowth after a solve: error is roughly
// PrefixGrowth times machine epsilon.
//
// The heavy lifting lives in the internal packages (internal/mat dense
// kernels, internal/comm message-passing runtime, internal/core solvers);
// this package re-exports the stable surface.
package blocktri

import (
	"io"
	"math/rand"

	iblocktri "blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/costmodel"
	"blocktri/internal/mat"
)

// Matrix is a block tridiagonal matrix of N block rows with M x M blocks.
type Matrix = iblocktri.Matrix

// DenseMatrix is a dense row-major matrix; stacked right-hand sides and
// solutions are DenseMatrix values of shape (N*M) x R.
type DenseMatrix = mat.Matrix

// World is a set of communicating ranks (the in-process MPI stand-in).
type World = comm.World

// CommStats aggregates message counts, bytes and modeled network time.
type CommStats = comm.Stats

// Solver is the one interface of every solver; see the core package for
// details.
type Solver = core.Solver

// Config selects the communicator the distributed solvers run on.
type Config = core.Config

// SolveStats reports the cost of a solver's Factor call or last solve.
type SolveStats = core.SolveStats

// Thomas, RD, ARD, Spike and Dense are the concrete solver types.
type (
	// Thomas is the sequential block Thomas solver.
	Thomas = core.Thomas
	// RD is classic recursive doubling.
	RD = core.RD
	// ARD is accelerated recursive doubling (the paper's contribution).
	ARD = core.ARD
	// Spike is the SPIKE partition method: the numerically stable
	// factor/solve-split parallel baseline.
	Spike = core.Spike
	// Dense is the dense-LU reference solver.
	Dense = core.Dense
)

// Error sentinels re-exported for errors.Is checks by callers.
var (
	// ErrShape reports a right-hand side whose shape does not match the
	// system.
	ErrShape = core.ErrShape
	// ErrSingularSuper reports a singular super-diagonal block, which the
	// recursive doubling formulation cannot handle (use a stable solver).
	ErrSingularSuper = core.ErrSingularSuper
	// ErrChunkTooSmall reports a SPIKE partition with fewer than two
	// block rows per rank.
	ErrChunkTooSmall = core.ErrChunkTooSmall
)

// NewWorld returns a communicator with p ranks.
func NewWorld(p int) *World { return comm.NewWorld(p) }

// New returns an all-zero block tridiagonal matrix with n block rows of
// size m (corner blocks nil, all others allocated).
func New(n, m int) *Matrix { return iblocktri.New(n, m) }

// NewThomas returns the sequential block Thomas solver for a.
func NewThomas(a *Matrix) *Thomas { return core.NewThomas(a) }

// NewRD returns the classic recursive doubling solver for a.
func NewRD(a *Matrix, cfg Config) *RD { return core.NewRD(a, cfg) }

// NewARD returns the accelerated recursive doubling solver for a.
func NewARD(a *Matrix, cfg Config) *ARD { return core.NewARD(a, cfg) }

// NewSpike returns the SPIKE partition solver for a (requires N >= 2P).
func NewSpike(a *Matrix, cfg Config) *Spike { return core.NewSpike(a, cfg) }

// Auto selects a solver automatically using the PrefixGrowth diagnostic.
type Auto = core.Auto

// AutoOptions tunes NewAuto's selection policy.
type AutoOptions = core.AutoOptions

// NewAuto returns a solver that picks ARD, SPIKE or Thomas based on the
// matrix's measured recurrence growth and the partition constraints.
func NewAuto(a *Matrix, cfg Config, opt AutoOptions) *Auto {
	return core.NewAuto(a, cfg, opt)
}

// NewDense returns the dense LU reference solver for a (test scale only).
func NewDense(a *Matrix) *Dense { return core.NewDense(a) }

// NewDenseMatrix returns a zeroed r x c dense matrix.
func NewDenseMatrix(r, c int) *DenseMatrix { return mat.New(r, c) }

// NewPoisson2D returns the 5-point Laplacian on an nx x ny grid as a block
// tridiagonal matrix with ny block rows of size nx.
func NewPoisson2D(nx, ny int) *Matrix { return iblocktri.Poisson2D(nx, ny) }

// NewConvectionDiffusion returns a non-symmetric convection-diffusion
// operator on an nx x ny grid; |peclet| < 2.
func NewConvectionDiffusion(nx, ny int, peclet float64) *Matrix {
	return iblocktri.ConvectionDiffusion(nx, ny, peclet)
}

// NewAnisotropicDiffusion returns a strongly anisotropic diffusion
// operator (-eps*u_xx - u_yy) on an nx x ny grid: ny block rows of size nx.
// Its line-to-line recurrence grows slowly, so recursive doubling is
// accurate for modest ny, but the growth rises exponentially with ny (see
// the package's numerical caveat).
func NewAnisotropicDiffusion(nx, ny int, eps float64) *Matrix {
	return iblocktri.AnisotropicDiffusion(nx, ny, eps)
}

// NewRandomDiagDominant returns a strictly diagonally dominant random
// system (well conditioned for all solvers).
func NewRandomDiagDominant(n, m int, rng *rand.Rand) *Matrix {
	return iblocktri.RandomDiagDominant(n, m, rng)
}

// NewOscillatory returns a system whose propagation modes lie on the unit
// circle — the stable-recurrence family suited to large-N recursive
// doubling runs.
func NewOscillatory(n, m int, rng *rand.Rand) *Matrix {
	return iblocktri.Oscillatory(n, m, rng)
}

// NewBlockToeplitz returns a block Toeplitz tridiagonal system.
func NewBlockToeplitz(n, m int, rng *rand.Rand) *Matrix {
	return iblocktri.BlockToeplitz(n, m, rng)
}

// NewScalarTridiagonal builds the M=1 block system for a classic scalar
// tridiagonal matrix (sub-diagonal, diagonal, super-diagonal).
func NewScalarTridiagonal(lower, diag, upper []float64) *Matrix {
	return iblocktri.FromScalarTridiagonal(lower, diag, upper)
}

// EstimateGrowth cheaply predicts the per-row growth rate of the
// recursive doubling recurrence for a (see core.EstimateGrowth): rates
// near 1 mean RD/ARD will be accurate; rates well above 1 mean their
// error grows like rate^N and a stable solver should be used.
func EstimateGrowth(a *Matrix, samples int) float64 {
	return core.EstimateGrowth(a, samples)
}

// LoadFactor restores an ARD factorization previously written with
// (*ARD).SaveFactor for the same matrix shape and world size, skipping
// the O(M^3) factor phase entirely.
func LoadFactor(a *Matrix, cfg Config, r io.Reader) (*ARD, error) {
	return core.LoadFactor(a, cfg, r)
}

// RefineReport describes what iterative refinement achieved.
type RefineReport = core.RefineReport

// SolveRefined solves A*x = b and applies up to maxIters steps of
// iterative refinement, extending the accuracy of the prefix-based
// solvers whenever PrefixGrowth*eps is well below 1.
func SolveRefined(s Solver, b *DenseMatrix, maxIters int) (*DenseMatrix, RefineReport, error) {
	return core.SolveRefined(s, b, maxIters)
}

// CostParams identifies a configuration for the analytic cost model.
type CostParams = costmodel.Params

// PredictedSpeedup returns the modeled ARD-over-RD speedup for nrhs
// sequential solves sharing one matrix.
func PredictedSpeedup(p CostParams, nrhs int) float64 {
	return costmodel.PredictedSpeedup(p, nrhs)
}
