package core

import (
	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// RefineReport describes what iterative refinement achieved.
type RefineReport struct {
	// Iters is the number of corrections that were accepted.
	Iters int
	// InitialResidual and FinalResidual are Frobenius norms of A*x - b
	// before and after refinement.
	InitialResidual float64
	FinalResidual   float64
}

// Improved reports whether refinement reduced the residual at all. A
// false value on a large residual means the base solver has no correct
// digits to refine (for ARD/RD: PrefixGrowth*eps is near or above 1).
func (r RefineReport) Improved() bool { return r.FinalResidual < r.InitialResidual }

// SolveRefined solves A*x = b with s and then applies up to maxIters
// steps of iterative refinement:
//
//	x <- x + s.Solve(b - A*x)
//
// stopping early once the residual norm stops decreasing (keeping the
// best iterate). Each step costs one extra solve plus one block
// tridiagonal mat-vec — for a factored solver such as ARD that is
// O(M^2 R (N/P + log P)), so refinement multiplies the cheap phase only.
//
// Refinement converges when the base solver's effective relative error is
// below ~1/2; for ARD/RD that means PrefixGrowth*eps << 1. Beyond that
// the corrections make no progress; the report's Improved method exposes
// this so callers can fall back to a stable solver.
func SolveRefined(s Solver, b *mat.Matrix, maxIters int) (*mat.Matrix, RefineReport, error) {
	x, err := s.Solve(b)
	if err != nil {
		return nil, RefineReport{}, err
	}
	best, rep, err := refine(s.Matrix(), s, x, b, maxIters)
	if err != nil {
		return nil, rep, err
	}
	return best, rep, nil
}

// refine is the one refinement loop: starting from x0 it applies up to
// maxIters corrections against matrix a,
//
//	x <- x - s.Solve(a*x - b)
//
// where s solves a itself (SolveRefined) or a perturbed matrix that serves
// as a preconditioner (SolveBoosted), and stops once the residual stops
// improving. It returns the best iterate with its report, and the error of
// a failed correction solve, if any.
func refine(a *blocktri.Matrix, s Solver, x0, b *mat.Matrix, maxIters int) (*mat.Matrix, RefineReport, error) {
	best := x0
	bestNorm := residNorm(a, x0, b)
	rep := RefineReport{InitialResidual: bestNorm, FinalResidual: bestNorm}
	for it := 0; it < maxIters && bestNorm != 0; it++ {
		r := a.MatVec(best)
		mat.Sub(r, r, b) // r = A*x - b
		d, err := s.Solve(r)
		if err != nil {
			return best, rep, err
		}
		next := best.Clone()
		mat.AXPY(next, -1, d)
		norm := residNorm(a, next, b)
		if norm >= bestNorm {
			break
		}
		best, bestNorm = next, norm
		rep.Iters++
		rep.FinalResidual = norm
	}
	return best, rep, nil
}

func residNorm(a *blocktri.Matrix, x, b *mat.Matrix) float64 {
	r := a.MatVec(x)
	mat.Sub(r, r, b)
	return mat.NormFrob(r)
}
