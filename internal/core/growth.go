package core

import (
	"math"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// EstimateGrowth predicts the per-row growth rate of the transfer-matrix
// recurrence WITHOUT running a factorization: it builds the transfer
// matrices of up to `samples` evenly spaced block rows and estimates
// each one's spectral radius by power iteration, returning the largest.
//
// The prefix products grow roughly like rho^N where rho is the returned
// rate, so the expected RD/ARD relative error is about
// rho^N * 1e-16 — rates near 1 mean the matrix is in recursive
// doubling's stable regime, rates well above 1 mean it is not. The
// estimate is a heuristic (the product of non-commuting matrices can
// deviate from per-factor spectral radii), intended for cheap a-priori
// triage; the authoritative measurement is SolveStats.PrefixGrowth after
// a Factor.
//
// It returns +Inf if a sampled super-diagonal block is singular (the
// formulation does not apply), and 0 for systems with no interior rows
// (N < 2).
func EstimateGrowth(a *blocktri.Matrix, samples int) float64 {
	if a.N < 2 {
		return 0
	}
	if samples < 1 {
		samples = 1
	}
	if samples > a.N-1 {
		samples = a.N - 1
	}
	step := (a.N - 1) / samples
	if step < 1 {
		step = 1
	}
	maxRho := 0.0
	ws := mat.NewWorkspace()
	for i := 1; i <= a.N-1; i += step {
		ws.Reset()
		e, err := buildElement(ws, a, i)
		if err != nil {
			return math.Inf(1)
		}
		if rho := spectralRadiusEstimate(ws, e.t.a, 30); rho > maxRho {
			maxRho = rho
		}
	}
	return maxRho
}

// spectralRadiusEstimate runs iters power iterations on the transfer
// matrix with top half top, applying it through composeT (T itself is
// never formed), and returns the converged Rayleigh-like ratio
// ||T*v|| / ||v||. Deterministic start vector; renormalized each step.
func spectralRadiusEstimate(ws *mat.Workspace, top *mat.Matrix, iters int) float64 {
	n := 2 * top.Rows
	v := ws.GetNoClear(n, 1)
	for i := 0; i < n; i++ {
		// Deterministic, non-symmetric start so the iteration does not
		// stall on an invariant subspace.
		v.Set(i, 0, 1+0.37*float64(i%7))
	}
	w := ws.GetNoClear(n, 1)
	rho := 0.0
	for k := 0; k < iters; k++ {
		composeT(ws, w, top, mat.PackedA{}, v, nil)
		norm := mat.NormFrob(w)
		if norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
			return norm
		}
		rho = norm / mat.NormFrob(v)
		mat.Scale(w, 1/norm)
		v, w = w, v
	}
	return rho
}
