package blocktri

import (
	"fmt"
	"math"
	"math/rand"

	"blocktri/internal/mat"
)

// RandomDiagDominant returns an N x N block tridiagonal matrix with M x M
// blocks whose dense expansion is strictly row diagonally dominant, which
// guarantees nonsingularity and keeps every solver in this repository well
// conditioned. The super-diagonal blocks are shifted by 2*I so that they are
// comfortably invertible, as the transfer-matrix recursive doubling
// formulation requires.
func RandomDiagDominant(n, m int, rng *rand.Rand) *Matrix {
	a := New(n, m)
	for i := 0; i < n; i++ {
		if i > 0 {
			a.Lower[i].CopyFrom(mat.Random(m, m, rng))
		}
		if i < n-1 {
			u := mat.Random(m, m, rng)
			for k := 0; k < m; k++ {
				u.AddAt(k, k, 2)
			}
			a.Upper[i].CopyFrom(u)
		}
		a.Diag[i].CopyFrom(mat.Random(m, m, rng))
	}
	makeDominant(a, 1.0)
	return a
}

// makeDominant rewrites each diagonal block's diagonal entries so that every
// dense row is strictly diagonally dominant with the given margin.
func makeDominant(a *Matrix, margin float64) {
	for i := 0; i < a.N; i++ {
		for r := 0; r < a.M; r++ {
			sum := 0.0
			rowAbs := func(b *mat.Matrix) {
				if b == nil {
					return
				}
				for c := 0; c < a.M; c++ {
					sum += math.Abs(b.At(r, c))
				}
			}
			rowAbs(a.Lower[i])
			rowAbs(a.Upper[i])
			rowAbs(a.Diag[i])
			sum -= math.Abs(a.Diag[i].At(r, r)) // exclude current diagonal
			a.Diag[i].Set(r, r, sum+margin)
		}
	}
}

// Poisson2D returns the block tridiagonal matrix of the standard 5-point
// finite-difference Laplacian on an nx x ny grid with Dirichlet boundaries:
// ny block rows of size nx, D = tridiag(-1, 4, -1), L = U = -I.
//
// This is the canonical PDE workload that motivates block tridiagonal
// solvers: each block row is one grid line.
func Poisson2D(nx, ny int) *Matrix {
	a := New(ny, nx)
	for i := 0; i < ny; i++ {
		d := a.Diag[i]
		for k := 0; k < nx; k++ {
			d.Set(k, k, 4)
			if k > 0 {
				d.Set(k, k-1, -1)
			}
			if k < nx-1 {
				d.Set(k, k+1, -1)
			}
		}
		if i > 0 {
			negIdentity(a.Lower[i])
		}
		if i < ny-1 {
			negIdentity(a.Upper[i])
		}
	}
	return a
}

// ConvectionDiffusion returns the block tridiagonal matrix of a 2-D
// convection-diffusion operator (-Δu + p·∇u) discretized with central
// differences on an nx x ny grid. peclet controls the strength of the
// (non-symmetric) convection term; peclet = 0 reduces to Poisson2D.
// |peclet| < 2 keeps the off-diagonal couplings nonsingular (U blocks are
// -(1 + peclet/2) I).
func ConvectionDiffusion(nx, ny int, peclet float64) *Matrix {
	a := New(ny, nx)
	cw := -(1 - peclet/2) // west / south coupling
	ce := -(1 + peclet/2) // east / north coupling
	for i := 0; i < ny; i++ {
		d := a.Diag[i]
		for k := 0; k < nx; k++ {
			d.Set(k, k, 4)
			if k > 0 {
				d.Set(k, k-1, cw)
			}
			if k < nx-1 {
				d.Set(k, k+1, ce)
			}
		}
		if i > 0 {
			scaledIdentity(a.Lower[i], cw)
		}
		if i < ny-1 {
			scaledIdentity(a.Upper[i], ce)
		}
	}
	return a
}

// BlockToeplitz returns an N-row block tridiagonal matrix in which every
// block row repeats the same (L, D, U) triple, drawn once at random and
// made diagonally dominant. Block Toeplitz structure is typical of
// discretized constant-coefficient operators.
func BlockToeplitz(n, m int, rng *rand.Rand) *Matrix {
	l := mat.Random(m, m, rng)
	u := mat.Random(m, m, rng)
	for k := 0; k < m; k++ {
		u.AddAt(k, k, 2)
	}
	d := mat.New(m, m)
	for r := 0; r < m; r++ {
		sum := 0.0
		for c := 0; c < m; c++ {
			sum += math.Abs(l.At(r, c)) + math.Abs(u.At(r, c))
			if c != r {
				v := 2*rng.Float64() - 1
				d.Set(r, c, v)
				sum += math.Abs(v)
			}
		}
		d.Set(r, r, sum+1)
	}
	a := New(n, m)
	for i := 0; i < n; i++ {
		a.Diag[i].CopyFrom(d)
		if i > 0 {
			a.Lower[i].CopyFrom(l)
		}
		if i < n-1 {
			a.Upper[i].CopyFrom(u)
		}
	}
	return a
}

// AnisotropicDiffusion returns the block tridiagonal matrix of a strongly
// anisotropic diffusion operator -eps*u_xx - u_yy on an nx x ny grid with
// Dirichlet boundaries: ny block rows of size nx with
//
//	D = tridiag(-eps, 2+2*eps, -eps),  L = U = -I.
//
// Strong coupling along y (relative to the in-line terms) keeps the
// line-to-line recurrence modes close to the unit circle, growing only
// ~1+2*sqrt(eps) per block row, but that growth compounds: the prefix
// growth of transfer-matrix recursive doubling still rises exponentially
// with ny (about 8e3 at 32 block rows, 4e6 at 64 and 1e12 at 128 for
// nx = 64, eps = 0.01), so RD and ARD are accurate here only for modest
// ny. eps must be positive; values around 0.01 are typical.
func AnisotropicDiffusion(nx, ny int, eps float64) *Matrix {
	a := New(ny, nx)
	for i := 0; i < ny; i++ {
		d := a.Diag[i]
		for k := 0; k < nx; k++ {
			d.Set(k, k, 2+2*eps)
			if k > 0 {
				d.Set(k, k-1, -eps)
			}
			if k < nx-1 {
				d.Set(k, k+1, -eps)
			}
		}
		if i > 0 {
			negIdentity(a.Lower[i])
		}
		if i < ny-1 {
			negIdentity(a.Upper[i])
		}
	}
	return a
}

// Oscillatory returns an N x N block tridiagonal matrix with M x M blocks
// whose associated three-term recurrence x_{i+1} = -U^{-1}(D x_i + L x_{i-1})
// has all propagation modes on (or near) the unit circle: U = L = I and D
// symmetric with spectral radius strictly below 2, so the characteristic
// roots λ of λ^2 + μλ + 1 = 0 (μ an eigenvalue of D, |μ| < 2) satisfy
// |λ| = 1.
//
// This family models the stable sweep recurrences (e.g. transport sweeps)
// that recursive doubling is used on in practice: unlike generic
// diagonally dominant matrices, the prefix products of the transfer
// matrices stay bounded, so large N neither overflows nor loses accuracy
// catastrophically, making it the right workload for large-scale
// performance runs. The matrix is symmetric but indefinite.
func Oscillatory(n, m int, rng *rand.Rand) *Matrix {
	// D = tridiag(a, c, a) with |c| + 2|a| <= 1.9 < 2 bounds the spectrum
	// of D within (-1.9, 1.9) by Gershgorin. Randomize (a, c) within that
	// budget; keep |c| away from resonances that could make the global
	// matrix nearly singular.
	c := 0.4 + 1.0*rng.Float64() // in [0.4, 1.4]
	amax := (1.9 - c) / 2
	a := (0.2 + 0.8*rng.Float64()) * amax
	out := New(n, m)
	for i := 0; i < n; i++ {
		d := out.Diag[i]
		for k := 0; k < m; k++ {
			d.Set(k, k, c)
			if k > 0 {
				d.Set(k, k-1, a)
			}
			if k < m-1 {
				d.Set(k, k+1, a)
			}
		}
		if i > 0 {
			scaledIdentity(out.Lower[i], 1)
		}
		if i < n-1 {
			scaledIdentity(out.Upper[i], 1)
		}
	}
	return out
}

func negIdentity(b *mat.Matrix) {
	scaledIdentity(b, -1)
}

func scaledIdentity(b *mat.Matrix, s float64) {
	b.Zero()
	for k := 0; k < b.Rows; k++ {
		b.Set(k, k, s)
	}
}

// FromScalarTridiagonal builds the M=1 block system for a scalar
// tridiagonal matrix with sub-diagonal lower (length n-1), diagonal diag
// (length n) and super-diagonal upper (length n-1) — the convenience
// entry point for users with classic tridiagonal systems.
func FromScalarTridiagonal(lower, diag, upper []float64) *Matrix {
	n := len(diag)
	if len(lower) != n-1 || len(upper) != n-1 {
		panic(fmt.Sprintf("blocktri: scalar tridiagonal needs %d off-diagonal entries, got %d/%d",
			n-1, len(lower), len(upper)))
	}
	a := New(n, 1)
	for i := 0; i < n; i++ {
		a.Diag[i].Set(0, 0, diag[i])
		if i > 0 {
			a.Lower[i].Set(0, 0, lower[i-1])
		}
		if i < n-1 {
			a.Upper[i].Set(0, 0, upper[i])
		}
	}
	return a
}
