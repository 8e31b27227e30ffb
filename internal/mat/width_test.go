package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The width contract of the AVX-512 FMA kernels: every product with k >= 8
// computes each element as one k-ascending FMA chain from zero, added into
// dst once, and every LU substitution applies its row updates as FMAs in a
// fixed order. Lanes never interact, so a column's bits do not depend on
// how many columns were multiplied or solved with it, nor on whether A was
// packed. The portable kernels make no such promise, so these tests skip
// without AVX-512.

// contractWidths crosses the narrow kernels (1-7), the full 8-column
// tiles, edge tiles (9, 13) and a wide panel (64).
var contractWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64}

func skipWithoutFMA(t *testing.T) {
	t.Helper()
	if !fmaKernels {
		t.Skip("width contract holds only on the AVX-512 FMA kernels")
	}
}

// fmaProductRef is the contract spelled out in Go: dst += chain, with
// chain = fma(alpha*a[i][k], b[k][j], chain) for k ascending from zero.
func fmaProductRef(alpha float64, a, b, dst *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			acc := 0.0
			for k := 0; k < a.Cols; k++ {
				acc = math.FMA(alpha*a.At(i, k), b.At(k, j), acc)
			}
			dst.Set(i, j, dst.At(i, j)+acc)
		}
	}
}

// fmaSolveRef is the substitution contract in Go: forward rows fold k
// ascending, back rows fold k descending and then divide; zero factors
// are skipped.
func fmaSolveRef(lu *LU, b *Matrix) {
	n, f := lu.N(), lu.factors
	for k, p := range lu.Piv {
		for j := 0; j < b.Cols; j++ {
			v := b.At(k, j)
			b.Set(k, j, b.At(p, j))
			b.Set(p, j, v)
		}
	}
	for j := 0; j < b.Cols; j++ {
		for i := 1; i < n; i++ {
			acc := b.At(i, j)
			for k := 0; k < i; k++ {
				if l := f.At(i, k); l != 0 {
					acc = math.FMA(-l, b.At(k, j), acc)
				}
			}
			b.Set(i, j, acc)
		}
		for i := n - 1; i >= 0; i-- {
			acc := b.At(i, j)
			for k := n - 1; k > i; k-- {
				if u := f.At(i, k); u != 0 {
					acc = math.FMA(-u, b.At(k, j), acc)
				}
			}
			b.Set(i, j, acc/f.At(i, i))
		}
	}
}

// column copies column j of m into a fresh n x 1 matrix.
func column(m *Matrix, j int) *Matrix { return m.Col(j).Clone() }

// TestFMAProductContract pins the kernels' arithmetic against the Go
// reference, for unpacked and packed A, alpha folded or not, and row counts
// that leave partial 8-row panels, and checks MulAddPacked's documented
// promise directly: on a pack of alpha*A it equals GEMM(alpha, A, B, 1, .)
// bit for bit.
func TestFMAProductContract(t *testing.T) {
	skipWithoutFMA(t)
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{1, 5, 8, 12, 16, 19, 32} {
		for _, k := range []int{8, 11, 16, 32} {
			for _, n := range contractWidths {
				for _, alpha := range []float64{1, -1, 0.7} {
					a, b := Random(m, k, rng), Random(k, n, rng)
					dst0 := Random(m, n, rng)
					want := dst0.Clone()
					fmaProductRef(alpha, a, b, want)
					plain := dst0.Clone()
					GEMM(alpha, a, b, 1, plain)
					if !plain.Equal(want) {
						t.Errorf("GEMM m=%d k=%d n=%d alpha=%v: not the FMA-chain contract", m, k, n, alpha)
					}
					packed := dst0.Clone()
					MulAddPacked(packed, NewPackedA(alpha, a), b, make([]float64, PackBLen(k, n)))
					if !packed.Equal(plain) {
						t.Errorf("m=%d k=%d n=%d alpha=%v: MulAddPacked != GEMM bitwise", m, k, n, alpha)
					}
				}
			}
		}
	}
}

// TestMulColumnsMatchWidthOne: column j of Mul(A, B) equals Mul(A, B[:, j])
// bit for bit, with the column read in place as a strided view and as a
// contiguous copy.
func TestMulColumnsMatchWidthOne(t *testing.T) {
	skipWithoutFMA(t)
	rng := rand.New(rand.NewSource(41))
	for _, sh := range []struct{ m, k int }{{16, 32}, {32, 32}, {12, 8}, {19, 11}} {
		a := Random(sh.m, sh.k, rng)
		for _, n := range contractWidths {
			b := Random(sh.k, n, rng)
			full := New(sh.m, n)
			Mul(full, a, b)
			for j := 0; j < n; j++ {
				for _, bj := range []*Matrix{b.Col(j), column(b, j)} {
					one := New(sh.m, 1)
					Mul(one, a, bj)
					if !one.Equal(column(full, j)) {
						t.Errorf("%dx%d n=%d: column %d of the panel product != width-1 product", sh.m, sh.k, n, j)
					}
				}
			}
		}
	}
}

// TestLUSolveContract pins the substitution kernel against the Go
// reference and checks that column j of an r-wide LU.SolveTo equals the
// width-1 solve of column j bit for bit.
func TestLUSolveContract(t *testing.T) {
	skipWithoutFMA(t)
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 8, 12, 16, 32} {
		a := Random(n, n, rng)
		// Plant exact zeros so the skip rule is exercised on both factors.
		if n > 2 {
			a.Set(n-1, 0, 0)
			a.Set(0, n-1, 0)
		}
		lu, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range contractWidths {
			b := Random(n, r, rng)
			want := b.Clone()
			fmaSolveRef(lu, want)
			got := New(n, r)
			lu.SolveTo(got, b)
			if !got.Equal(want) {
				t.Errorf("n=%d r=%d: LU solve is not the FMA substitution contract", n, r)
			}
			for j := 0; j < r; j++ {
				one := New(n, 1)
				lu.SolveTo(one, column(b, j))
				if !one.Equal(column(got, j)) {
					t.Errorf("n=%d r=%d: column %d of the panel solve != width-1 solve", n, r, j)
				}
			}
		}
	}
}

// outsideUntouched fails t if an element of big outside its (i, j, r, c)
// sub-matrix differs from orig.
func outsideUntouched(t *testing.T, what string, big, orig *Matrix, i0, j0, r, c int) {
	t.Helper()
	for i := 0; i < big.Rows; i++ {
		for j := 0; j < big.Cols; j++ {
			inside := i >= i0 && i < i0+r && j >= j0 && j < j0+c
			if !inside && math.Float64bits(big.At(i, j)) != math.Float64bits(orig.At(i, j)) {
				t.Fatalf("%s: element (%d,%d) outside the view was written", what, i, j)
			}
		}
	}
}

// TestNarrowKernelsOnViews runs the narrow kernels on strided views of
// larger matrices for A, B and dst alike, and checks that nothing outside
// the destination view is written; then the same for a packed A at one
// column, read from a strided b into a contiguous dst (the column kernel,
// two slabs, the second partial) and into a strided one; then for an LU
// solve in place on a view.
func TestNarrowKernelsOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	bigA, bigB := Random(40, 40, rng), Random(40, 40, rng)
	a, b := bigA.View(3, 2, 19, 16), bigB.View(1, 5, 16, 3)
	bigD := Random(30, 30, rng)
	orig := bigD.Clone()
	dst := bigD.View(4, 7, 19, 3)
	want := dst.Clone()
	MulAdd(want, a, b)
	MulAdd(dst, a, b)
	if !dst.EqualApprox(want, 1e-12) {
		t.Fatal("narrow product on views wrong")
	}
	if fmaKernels && !dst.Equal(want) {
		t.Error("narrow product on views not bitwise equal to the contiguous product")
	}
	outsideUntouched(t, "narrow product", bigD, orig, 4, 7, 19, 3)

	pa := NewPackedA(1, a)
	bcol := b.View(0, 1, 16, 1)
	for _, big := range []*Matrix{Random(30, 1, rng), Random(30, 30, rng)} {
		orig := big.Clone()
		dst := big.View(4, 0, 19, 1)
		want := dst.Clone()
		MulAdd(want, a, bcol)
		MulAddPacked(dst, pa, bcol, nil)
		if !dst.EqualApprox(want, 1e-12) {
			t.Fatalf("packed width-1 product on views (dst stride %d) wrong", dst.Stride)
		}
		if fmaKernels && !dst.Equal(want) {
			t.Errorf("packed width-1 product on views (dst stride %d) != the unpacked product bitwise", dst.Stride)
		}
		outsideUntouched(t, "packed width-1 product", big, orig, 4, 0, 19, 1)
	}

	lu, err := Factor(RandomDiagDominant(12, 1, rng))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 3, 7, 13} {
		bigB := Random(20, 20, rng)
		orig := bigB.Clone()
		view := bigB.View(5, 2, 12, r)
		want := lu.Solve(view)
		lu.SolveInPlace(view)
		if !view.EqualApprox(want, 1e-12) {
			t.Fatalf("r=%d: LU solve on a view wrong", r)
		}
		outsideUntouched(t, fmt.Sprintf("r=%d LU solve", r), bigB, orig, 5, 2, 12, r)
	}
}

// withSign sets every element of v to sign*|v|.
func withSign(v *Matrix, sign float64) {
	for i := 0; i < v.Rows; i++ {
		for j := 0; j < v.Cols; j++ {
			v.Set(i, j, math.Copysign(v.At(i, j), sign))
		}
	}
}

// TestMulPackedPairMatchesSequence pins the two-operand entry against the
// sequence it stands for, dst.Zero() and then MulAddPacked of each
// operand, bit for bit with signed zeros told apart. Row counts leave
// partial panels and slabs; k1 <= k2 takes the fused column kernel at one
// column into a contiguous dst view, while k1 > k2 and three columns take
// the sequence; b and c are strided views. Two sign cases must give +0,
// the sign the zeroed dst gives: all-zero operands times right-hand sides
// of negative values and a -0 (a chain started from its first product
// would give -0), and operands whose only products underflow to -0 (each
// chain ends at -0, and only the zeroed dst's +0 turns the sum positive).
func TestMulPackedPairMatchesSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, rows := range []int{1, 5, 8, 12, 16, 17, 32} {
		for _, k := range [][2]int{{8, 8}, {8, 16}, {11, 23}, {16, 32}, {32, 32}, {16, 8}} {
			for _, n := range []int{1, 3} {
				for _, signs := range []string{"random", "zero", "underflow"} {
					a, c := Random(rows, k[0], rng), Random(rows, k[1], rng)
					bBig, cBig := Random(k[0], n+2, rng), Random(k[1], n+2, rng)
					b, cv := bBig.View(0, 1, k[0], n), cBig.View(0, 2, k[1], n)
					switch signs {
					case "zero":
						a.Zero()
						c.Zero()
						withSign(b, -1)
						withSign(cv, -1)
						b.Set(k[0]/2, 0, math.Copysign(0, -1))
						cv.Set(k[1]/2, 0, math.Copysign(0, -1))
					case "underflow":
						// Every product of row rows-1, column 0 is -0 or rounds
						// to -0 (c is packed negated).
						a.Zero()
						c.Zero()
						withSign(b, -1)
						withSign(cv, 1)
						a.Set(rows-1, 0, 1e-200)
						c.Set(rows-1, 0, 1e-200)
						b.Set(0, 0, -1e-200)
						cv.Set(0, 0, 1e-200)
					}
					pa, pc := NewPackedA(1, a), NewPackedA(-1, c)
					want := New(rows, n)
					MulAddPacked(want, pa, b, nil)
					MulAddPacked(want, pc, cv, nil)
					big := Random(rows+6, n, rng)
					orig := big.Clone()
					got := big.View(3, 0, rows, n)
					MulPackedPair(got, pa, b, pc, cv, make([]float64, PackBLen(max(k[0], k[1]), n)))
					what := fmt.Sprintf("rows=%d k=%v n=%d %s", rows, k, n, signs)
					for i := 0; i < rows; i++ {
						for j := 0; j < n; j++ {
							g, w := got.At(i, j), want.At(i, j)
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%s: (%d,%d) is %v, the zero-and-add sequence gives %v", what, i, j, g, w)
							}
							if signs != "random" && math.Float64bits(g) == 1<<63 {
								t.Fatalf("%s: (%d,%d) is -0, want the +0 of a zeroed dst", what, i, j)
							}
						}
					}
					outsideUntouched(t, what, big, orig, 3, 0, rows, n)
				}
			}
		}
	}
}
