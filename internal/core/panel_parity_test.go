package core

import (
	"math/rand"
	"testing"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// The ARD solve phase routes every transfer product through MulAddPacked
// when the (m, k, rhs) shape clears mat.PanelPacked, and falls back to the
// Mul+Add sequence otherwise. These tests pin the parity contracts of that
// dispatch:
//
//   - RD vs ARD stays BITWISE equal at every panel width, because both
//     solvers resolve each product shape to the same kernel arithmetic and
//     the packed seed-then-accumulate ordering is IEEE-add-commutative with
//     the Mul-then-Add ordering;
//   - with the AVX-512 FMA kernels (mat.FMAKernels), column j of a batched
//     solve is BITWISE the solve of column j alone: every product with
//     k >= 8 and every LU substitution gives each column the same
//     arithmetic at every width. The portable kernels accumulate narrow and
//     wide panels differently, so there the two agree only to rounding.

// panelParitySystems builds the systems the parity tests share: a random
// diagonally dominant matrix and an oscillatory workload system, both with
// M=8, so the applyT half-products (8x16) are packed at every width on the
// FMA kernels and at none on the portable ones.
func panelParitySystems(rng *rand.Rand) []*blocktri.Matrix {
	return []*blocktri.Matrix{
		blocktri.RandomDiagDominant(64, 8, rng),
		blocktri.Oscillatory(24, 8, rng),
	}
}

// TestPanelizedARDMatchesRDBitwise sweeps the panel widths across the
// narrow (below one 8-column panel), edge-tile and wide regimes. Every
// width must reproduce RD's bits exactly.
func TestPanelizedARDMatchesRDBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for si, a := range panelParitySystems(rng) {
		for _, r := range []int{1, 3, 4, 13, 64, 256} {
			b := a.RandomRHS(r, rng)
			xr, err := NewRD(a, Config{World: comm.NewWorld(4)}).Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			xa, err := NewARD(a, Config{World: comm.NewWorld(4)}).Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if !xr.Equal(xa) {
				t.Errorf("system %d: panelized ARD != RD bitwise at R=%d", si, r)
			}
		}
	}
}

// columnOf copies column j of m into a fresh n x 1 matrix.
func columnOf(m *mat.Matrix, j int) *mat.Matrix { return m.Col(j).Clone() }

// TestPanelizedMatchesPerColumnSolves checks the panel semantics: column j
// of a batched solve is the solution for column j of the right-hand side.
// With the FMA kernels the match is bitwise; on the portable kernels a
// 1-wide column takes gemv while the panel takes the packed kernel, and the
// comparison falls back to a tolerance.
func TestPanelizedMatchesPerColumnSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	// Tolerance comparisons need systems whose transfer products stay
	// bounded: at the bitwise test's sizes the random system's growth has
	// amplified roundoff past any meaningful tolerance (RD-family
	// conditioning, not a panel property). A short random system keeps the
	// amplification near 1e-8; the oscillatory family is stable outright.
	systems := []*blocktri.Matrix{
		blocktri.RandomDiagDominant(8, 8, rng),
		blocktri.Oscillatory(24, 8, rng),
	}
	for si, a := range systems {
		s := NewARD(a, Config{World: comm.NewWorld(4)})
		if err := s.Factor(); err != nil {
			t.Fatal(err)
		}
		const r = 64
		b := a.RandomRHS(r, rng)
		xp, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{0, 1, r / 2, r - 1} {
			xj, err := s.Solve(columnOf(b, j))
			if err != nil {
				t.Fatal(err)
			}
			col := columnOf(xp, j)
			if mat.FMAKernels() {
				if !col.Equal(xj) {
					t.Errorf("system %d: panel column %d differs from the per-column solve bitwise", si, j)
				}
			} else if !col.EqualApprox(xj, 1e-6) {
				t.Errorf("system %d: panel column %d differs from per-column solve beyond tolerance", si, j)
			}
		}
	}
}

// TestARDColumnsMatchWidthOneBitwise is the width contract end to end:
// every column of an R-wide ARD SolveTo equals, bit for bit, the width-1
// solve of that column, across block sizes whose products land on full
// tiles (M=8, 16) and on partial 8-row panels (M=12).
func TestARDColumnsMatchWidthOneBitwise(t *testing.T) {
	if !mat.FMAKernels() {
		t.Skip("the width contract holds only on the AVX-512 FMA kernels")
	}
	rng := rand.New(rand.NewSource(229))
	for _, m := range []int{8, 12, 16} {
		a := blocktri.Oscillatory(20, m, rng)
		s := NewARD(a, Config{World: comm.NewWorld(4)})
		if err := s.Factor(); err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{3, 8, 13, 64} {
			b := a.RandomRHS(r, rng)
			x := mat.New(b.Rows, r)
			if err := s.SolveTo(x, b); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < r; j++ {
				xj := mat.New(b.Rows, 1)
				if err := s.SolveTo(xj, columnOf(b, j)); err != nil {
					t.Fatal(err)
				}
				if !columnOf(x, j).Equal(xj) {
					t.Errorf("M=%d R=%d: column %d != width-1 solve bitwise", m, r, j)
				}
			}
		}
	}
}

// TestPanelDegenerateSingleRHS pins the dispatch at the narrow end: with
// the FMA kernels every width packs once k reaches one panel (8), so a
// single-RHS solve multiplies the operands ARD packed at factor time;
// below k = 8, and on the portable kernels at these widths, products stay
// unpacked. The solver still produces an accurate solution at R=1.
func TestPanelDegenerateSingleRHS(t *testing.T) {
	fma := mat.FMAKernels()
	for _, n := range []int{1, 2, 4, 7, 8, 13} {
		if got := mat.PanelPacked(8, 16, n); got != fma {
			t.Errorf("PanelPacked(8, 16, %d) = %v; want %v (FMA kernels %v)", n, got, fma, fma)
		}
	}
	if mat.PanelPacked(8, 7, 1) {
		t.Error("PanelPacked(8, 7, 1) = true; k below one panel must stay unpacked")
	}
	rng := rand.New(rand.NewSource(227))
	// The oscillatory family keeps transfer growth bounded, so the residual
	// check is meaningful at this size.
	a := blocktri.Oscillatory(24, 8, rng)
	b := a.RandomRHS(1, rng)
	s := NewARD(a, Config{World: comm.NewWorld(4)})
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if rr := a.RelResidual(x, b); rr > solveTol {
		t.Errorf("degenerate R=1 solve: relative residual %v", rr)
	}
}
