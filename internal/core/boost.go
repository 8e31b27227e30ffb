package core

import (
	"errors"
	"fmt"
	"math"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// Graceful degradation for singular pivots. The factorization-based solvers
// in this package fail with mat.ErrSingular (zero diagonal pivot) or
// ErrSingularSuper (zero pivot in a super-diagonal block, which recursive
// doubling inverts). Both are exact-zero conditions: the matrix itself may
// still be nonsingular, and even when a pivot is genuinely tiny, a slightly
// perturbed matrix factors fine and serves as a preconditioner for the
// original system. SolveBoosted packages that recovery: shift the diagonal
// by tau, refactor, solve the shifted system, then iteratively refine the
// iterate against the ORIGINAL matrix so the perturbation does not bias the
// answer. The achieved residual is reported so callers can judge the result
// instead of trusting it blindly.

// machEps is the double-precision unit roundoff spacing (2^-52).
const machEps = 0x1p-52

// BoostReport describes what a graceful solve had to do to produce its
// answer.
type BoostReport struct {
	// Boosted is false when the plain solve succeeded and no recovery ran.
	Boosted bool
	// Tau is the diagonal shift of the successful attempt (absolute, not
	// relative; zero when Boosted is false).
	Tau float64
	// Attempts counts boosted factorizations tried, including the one that
	// succeeded.
	Attempts int
	// BoostedSuper reports whether the super-diagonal blocks were shifted
	// too (needed when the failure was ErrSingularSuper).
	BoostedSuper bool
	// Refine describes the refinement pass against the original matrix.
	// FinalResidual is the Frobenius norm of A*x - b for the returned x —
	// the number a caller should inspect before trusting a boosted answer.
	Refine RefineReport
}

// Boostable reports whether err is an exact-singularity failure that a
// diagonal-boosted refactorization can work around.
func Boostable(err error) bool {
	return errors.Is(err, mat.ErrSingular) || errors.Is(err, ErrSingularSuper)
}

// BoostDiagonal returns a copy of a with tau added to every diagonal entry
// of each diagonal block: A + tau*I. When super is true the diagonal
// entries of the super-diagonal blocks are shifted as well, which breaks
// exact singularity of the U_i blocks the recursive doubling solvers
// invert.
func BoostDiagonal(a *blocktri.Matrix, tau float64, super bool) *blocktri.Matrix {
	out := a.Clone()
	for i := 0; i < out.N; i++ {
		d := out.Diag[i]
		for j := 0; j < out.M; j++ {
			d.AddAt(j, j, tau)
		}
		if super && out.Upper[i] != nil {
			u := out.Upper[i]
			for j := 0; j < out.M; j++ {
				u.AddAt(j, j, tau)
			}
		}
	}
	return out
}

// normBlocktri is the Frobenius norm of the full block tridiagonal matrix,
// used to scale the boost so tau is relative to the data.
func normBlocktri(a *blocktri.Matrix) float64 {
	sum := 0.0
	acc := func(m *mat.Matrix) {
		if m == nil {
			return
		}
		v := mat.NormFrob(m)
		sum += v * v
	}
	for i := 0; i < a.N; i++ {
		acc(a.Lower[i])
		acc(a.Diag[i])
		acc(a.Upper[i])
	}
	return math.Sqrt(sum)
}

// maxBoostAttempts bounds the tau escalation ladder. Starting at
// sqrt(eps)*||A|| and multiplying by 1e3 per attempt, four attempts end
// near 1e4*||A|| — far past the point where a shift can still help.
const maxBoostAttempts = 4

// SolveBoosted solves a*x = b with the solver newSolver constructs,
// degrading gracefully when the factorization hits an exactly singular
// block. On a singular failure it refactors A + tau*I (escalating tau from
// sqrt(eps)*||A||_F by 1e3 per attempt), solves the shifted system, and
// refines the iterate against the original matrix for up to refineIters
// corrections. The report carries the shift used and the achieved residual.
// Non-singularity errors — including comm-layer fault errors from a
// distributed solver — pass through unchanged, and if every attempt still
// hits a singular pivot the original error is returned wrapped.
func SolveBoosted(a *blocktri.Matrix, newSolver func(*blocktri.Matrix) Solver, b *mat.Matrix, refineIters int) (*mat.Matrix, BoostReport, error) {
	x, err := newSolver(a).Solve(b)
	if err == nil {
		return x, BoostReport{}, nil
	}
	if !Boostable(err) {
		return nil, BoostReport{}, err
	}
	origErr := err
	norm := normBlocktri(a)
	if norm == 0 {
		norm = 1
	}
	tau := norm * math.Sqrt(machEps)
	super := errors.Is(err, ErrSingularSuper)
	rep := BoostReport{Boosted: true}
	for k := 0; k < maxBoostAttempts; k++ {
		rep.Attempts = k + 1
		rep.Tau = tau
		rep.BoostedSuper = super
		bs := newSolver(BoostDiagonal(a, tau, super))
		xb, berr := bs.Solve(b)
		if berr != nil {
			if !Boostable(berr) {
				return nil, rep, berr
			}
			super = super || errors.Is(berr, ErrSingularSuper)
			tau *= 1e3
			continue
		}
		// The correction solves are inexact by construction (bs solves the
		// boosted system), so convergence is geometric with ratio roughly
		// tau*||A^+||. A failed correction keeps the best iterate so far
		// instead of discarding the answer.
		best, refRep, _ := refine(a, bs, xb, b, refineIters)
		rep.Refine = refRep
		return best, rep, nil
	}
	return nil, rep, fmt.Errorf("core: diagonal boost exhausted after %d attempts (last tau %.3g): %w",
		rep.Attempts, rep.Tau, origErr)
}
