package core

import (
	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// Dense is the reference solver: it expands the block tridiagonal matrix
// to dense form and applies pivoted LU. O((N*M)^3) factor cost makes it
// usable only at test scale, but it is backed by nothing except the dense
// kernels and therefore serves as the accuracy oracle for every other
// solver.
type Dense struct {
	base
	lu *mat.LU
}

// NewDense wraps a; factorization happens lazily on first Solve or an
// explicit Factor call.
func NewDense(a *blocktri.Matrix) *Dense {
	d := &Dense{}
	d.init(a, nil, d)
	return d
}

// Name implements Solver.
func (d *Dense) Name() string { return "dense-lu" }

// factor expands the matrix and factors it: O((N*M)^3).
func (d *Dense) factor() error {
	lu, err := mat.Factor(d.a.Dense())
	if err != nil {
		return err
	}
	d.lu = lu
	n := d.a.N * d.a.M
	d.factorStats = oneRank(luFlops(n))
	d.factorStats.StoredBytes = luBytes(n)
	return nil
}

// solve substitutes through the dense factors: O((N*M)^2 R).
func (d *Dense) solve(x, b *mat.Matrix) error {
	d.lu.SolveTo(x, b)
	d.solveStats = oneRank(luSolveFlops(b.Rows, b.Cols))
	return nil
}
