package mat

import "math"

// LU holds the LU factorization with partial (row) pivoting of a square
// matrix A, such that P*A = L*U where P is the permutation recorded in Piv.
// L is unit lower triangular and U upper triangular; both are packed into
// the single factors matrix.
type LU struct {
	factors *Matrix
	// Piv[k] is the row that was swapped with row k at elimination step k
	// (LAPACK-style ipiv, 0-based).
	Piv []int
	// sign is the permutation parity, +1 or -1, used by Det.
	sign float64
}

// Factor computes the pivoted LU factorization of the square matrix a.
// The input matrix is not modified. It returns ErrSingular if a zero pivot
// is encountered.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	lu := &LU{factors: a.Clone(), Piv: make([]int, a.Rows), sign: 1}
	if err := lu.factorize(); err != nil {
		return nil, err
	}
	return lu, nil
}

// FactorInPlace is like Factor but overwrites a with the packed factors,
// avoiding the copy. a must have contiguous storage semantics compatible
// with views (views are allowed).
func FactorInPlace(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	lu := &LU{factors: a, Piv: make([]int, a.Rows), sign: 1}
	if err := lu.factorize(); err != nil {
		return nil, err
	}
	return lu, nil
}

func (lu *LU) factorize() error {
	f := lu.factors
	n := f.Rows
	for k := 0; k < n; k++ {
		// Find pivot: largest |f[i][k]| for i >= k.
		p := k
		max := math.Abs(f.Data[k*f.Stride+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.Data[i*f.Stride+k]); v > max {
				max, p = v, i
			}
		}
		lu.Piv[k] = p
		if max == 0 {
			return ErrSingular
		}
		if p != k {
			lu.sign = -lu.sign
			rk := f.Data[k*f.Stride : k*f.Stride+n]
			rp := f.Data[p*f.Stride : p*f.Stride+n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivot := f.Data[k*f.Stride+k]
		for i := k + 1; i < n; i++ {
			m := f.Data[i*f.Stride+k] / pivot
			f.Data[i*f.Stride+k] = m
			if m == 0 {
				continue
			}
			ri := f.Data[i*f.Stride+k+1 : i*f.Stride+n]
			rk := f.Data[k*f.Stride+k+1 : k*f.Stride+n]
			for j := range ri {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// N returns the dimension of the factored matrix.
func (lu *LU) N() int { return lu.factors.Rows }

// Solve computes X such that A*X = B for the factored A and returns it.
// B may have any number of columns and is not modified: the result is
// freshly allocated and shares no storage with b (aliasing safe).
func (lu *LU) Solve(b *Matrix) *Matrix {
	x := b.Clone()
	lu.SolveInPlace(x)
	return x
}

// SolveTo computes X = A^{-1} B into dst, which must have b's shape and
// must not alias b.
func (lu *LU) SolveTo(dst, b *Matrix) {
	dst.CopyFrom(b)
	lu.SolveInPlace(dst)
}

// SolveInPlace overwrites b (n x r) with A^{-1} b: it applies the row
// permutation, then forward substitution with unit-L, then back
// substitution with U. b is the destination by design; no other aliasing
// is involved.
//
//perf:hotpath
func (lu *LU) SolveInPlace(b *Matrix) {
	n := lu.factors.Rows
	if b.Rows != n {
		panic("mat: LU solve dimension mismatch")
	}
	f := lu.factors
	r := b.Cols
	// Apply P: the same row interchanges performed during elimination.
	// Ranging over Piv (always length n) lets the compiler drop the pivot
	// load's bounds check; the row-slice extractions below still carry
	// checks the prover cannot remove without seeing Stride*k+r <= len.
	//lint:ignore perfbce the two row-slice extraction checks per swapped row are unprovable without exposing the Stride invariant
	//perf:hotloop
	for k, p := range lu.Piv {
		if p != k {
			rk := b.Data[k*b.Stride : k*b.Stride+r]
			rp := b.Data[p*b.Stride : p*b.Stride+r]
			for j := 0; j < r; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
	}
	// The FMA path gives every column the same arithmetic at any width:
	// forward rows fold k ascending, back rows fold k descending (the last
	// update a row waits for is the row solved just before it), each
	// update one FMA. Narrow panels run in strips of four, two and one
	// columns, each row held in a register; wide ones update whole rows
	// with axpyAsm.
	if fmaKernels && n > 0 && r > 0 {
		if r >= avxPanelW {
			lu.substituteWide(b, r)
			return
		}
		fd, j := &f.Data[0], 0
		for ; j+4 <= r; j += 4 {
			substitute4Asm(n, fd, f.Stride, &b.Data[j], b.Stride)
		}
		if j+2 <= r {
			substitute2Asm(n, fd, f.Stride, &b.Data[j], b.Stride)
			j += 2
		}
		if j < r {
			substitute1Asm(n, fd, f.Stride, &b.Data[j], b.Stride)
		}
		return
	}
	// Forward substitution: L y = P b with unit diagonal.
	for i := 1; i < n; i++ {
		bi := b.Data[i*b.Stride : i*b.Stride+r]
		for k := 0; k < i; k++ {
			m := f.Data[i*f.Stride+k]
			if m == 0 {
				continue
			}
			bk := b.Data[k*b.Stride : k*b.Stride+r]
			for j := 0; j < r; j++ {
				bi[j] -= m * bk[j]
			}
		}
	}
	// Back substitution: U x = y.
	for i := n - 1; i >= 0; i-- {
		bi := b.Data[i*b.Stride : i*b.Stride+r]
		for k := i + 1; k < n; k++ {
			u := f.Data[i*f.Stride+k]
			if u == 0 {
				continue
			}
			bk := b.Data[k*b.Stride : k*b.Stride+r]
			for j := 0; j < r; j++ {
				bi[j] -= u * bk[j]
			}
		}
		d := f.Data[i*f.Stride+i]
		for j := range bi {
			bi[j] /= d
		}
	}
}

// substituteWide is the FMA substitution of SolveInPlace for r >= 8
// columns: every row update is one axpyAsm over the whole row, its r mod 8
// tail included.
//
//perf:hotpath
func (lu *LU) substituteWide(b *Matrix, r int) {
	f := lu.factors
	n := f.Rows
	// Forward substitution: L y = P b with unit diagonal.
	//lint:ignore perfbce the surviving checks are the per-row panel extractions; the row updates run in axpyAsm with no checks at all
	//perf:hotloop
	for i := 1; i < n; i++ {
		bi := b.Data[i*b.Stride : i*b.Stride+r]
		for k := 0; k < i; k++ {
			m := f.Data[i*f.Stride+k]
			if m == 0 {
				continue
			}
			bk := b.Data[k*b.Stride : k*b.Stride+r]
			axpyAsm(-m, &bk[0], &bi[0], r)
		}
	}
	// Back substitution: U x = y, folding rows k = n-1 down to i+1.
	for i := n - 1; i >= 0; i-- {
		bi := b.Data[i*b.Stride : i*b.Stride+r]
		for k := n - 1; k > i; k-- {
			u := f.Data[i*f.Stride+k]
			if u == 0 {
				continue
			}
			bk := b.Data[k*b.Stride : k*b.Stride+r]
			axpyAsm(-u, &bk[0], &bi[0], r)
		}
		d := f.Data[i*f.Stride+i]
		for j := range bi {
			bi[j] /= d
		}
	}
}

// Inverse returns A^{-1} for the factored A. The result is freshly
// allocated and shares no storage with the factorization (aliasing safe).
func (lu *LU) Inverse() *Matrix {
	return lu.Solve(Identity(lu.factors.Rows))
}

// Det returns the determinant of the factored matrix.
func (lu *LU) Det() float64 {
	d := lu.sign
	f := lu.factors
	for i := 0; i < f.Rows; i++ {
		d *= f.Data[i*f.Stride+i]
	}
	return d
}

// Solve is a convenience one-shot: it factors a and solves A*X = B.
// Neither a nor b is modified; the result is freshly allocated (aliasing
// safe).
func Solve(a, b *Matrix) (*Matrix, error) {
	lu, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b), nil
}

// Inverse is a convenience one-shot matrix inverse. a is not modified; the
// result is freshly allocated (aliasing safe).
func Inverse(a *Matrix) (*Matrix, error) {
	lu, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return lu.Inverse(), nil
}

// Cond1 returns the exact 1-norm condition number of a, computed via an
// explicit inverse. This is O(n^3) and intended for the modest block sizes
// used in this repository (diagnostics and test assertions, not inner
// loops).
func Cond1(a *Matrix) (float64, error) {
	inv, err := Inverse(a)
	if err != nil {
		return math.Inf(1), err
	}
	return Norm1(a) * Norm1(inv), nil
}
