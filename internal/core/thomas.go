package core

import (
	"fmt"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// Thomas is the sequential block Thomas algorithm: block LU factorization
// of the tridiagonal followed by forward/backward substitution. It is the
// serial work-optimal baseline the paper compares against:
//
//	Factor: O(M^3 N)   Solve: O(M^2 N) per right-hand side.
//
// Factorization recurrence (Schur complements down the diagonal):
//
//	Δ_0 = D_0,  Δ_i = D_i - L_i Δ_{i-1}^{-1} U_{i-1}
//
// Thomas requires every Δ_i to be nonsingular, which holds for block
// diagonally dominant systems.
type Thomas struct {
	base
	luD []*mat.LU     // factorizations of Δ_i
	w   []*mat.Matrix // w[i] = Δ_i^{-1} U_i, i = 0..N-2
}

// NewThomas wraps a; factorization happens lazily on first Solve or an
// explicit Factor call.
func NewThomas(a *blocktri.Matrix) *Thomas {
	t := &Thomas{}
	t.init(a, nil, t)
	return t
}

// Name implements Solver.
func (t *Thomas) Name() string { return "block-thomas" }

// factor computes and stores the block LU factorization.
func (t *Thomas) factor() error {
	a := t.a
	n, m := a.N, a.M
	var fc flopCounter
	luD := make([]*mat.LU, n)
	w := make([]*mat.Matrix, n-1)
	delta := a.Diag[0].Clone()
	for i := 0; ; i++ {
		lu, err := mat.Factor(delta)
		if err != nil {
			return fmt.Errorf("core: thomas pivot block %d: %w", i, err)
		}
		fc.add(luFlops(m))
		luD[i] = lu
		if i == n-1 {
			break
		}
		// w[i] = Δ_i^{-1} U_i, then Δ_{i+1} = D_{i+1} - L_{i+1} w[i].
		w[i] = lu.Solve(a.Upper[i])
		fc.add(luSolveFlops(m, m))
		delta = a.Diag[i+1].Clone()
		mat.MulSub(delta, a.Lower[i+1], w[i])
		fc.add(gemmFlops(m, m, m))
	}
	t.luD, t.w = luD, w
	t.factorStats = oneRank(fc.n)
	t.factorStats.StoredBytes = int64(len(luD)) * luBytes(m)
	for _, wi := range w {
		t.factorStats.StoredBytes += matBytes(wi)
	}
	return nil
}

// solve runs both substitution sweeps in place on x, so after the first
// call has warmed the view-header arena, it allocates nothing.
func (t *Thomas) solve(x, b *mat.Matrix) error {
	a := t.a
	n, m, r := a.N, a.M, b.Cols
	ws := t.slots[0].ws
	ws.Reset()
	var fc flopCounter
	// Forward sweep: y_0 = Δ_0^{-1} b_0; y_i = Δ_i^{-1}(b_i - L_i y_{i-1}),
	// computed in place on x.
	x.CopyFrom(b)
	t.luD[0].SolveInPlace(wsBlockOf(ws, x, m, 0))
	fc.add(luSolveFlops(m, r))
	for i := 1; i < n; i++ {
		yi := wsBlockOf(ws, x, m, i)
		mat.MulSub(yi, a.Lower[i], wsBlockOf(ws, x, m, i-1))
		t.luD[i].SolveInPlace(yi)
		fc.add(gemmFlops(m, m, r) + luSolveFlops(m, r))
	}
	// Backward sweep: x_{N-1} = y_{N-1}; x_i = y_i - w_i x_{i+1},
	// from the bottom up.
	for i := n - 2; i >= 0; i-- {
		mat.MulSub(wsBlockOf(ws, x, m, i), t.w[i], wsBlockOf(ws, x, m, i+1))
		fc.add(gemmFlops(m, m, r))
	}
	t.solveStats = oneRank(fc.n)
	return nil
}
