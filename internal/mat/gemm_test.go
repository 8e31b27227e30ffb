package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is the reference triple loop used to validate the blocked and
// parallel GEMM kernels.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			sum := 0.0
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func TestMulSmallKnown(t *testing.T) {
	a := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := New(2, 2)
	Mul(c, a, b)
	want := NewFromSlice(2, 2, []float64{58, 64, 139, 154})
	if !c.Equal(want) {
		t.Fatalf("Mul wrong:\n%v", c)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(7, 7, rng)
	c := New(7, 7)
	Mul(c, a, Identity(7))
	if !c.Equal(a) {
		t.Fatal("A*I != A")
	}
	Mul(c, Identity(7), a)
	if !c.Equal(a) {
		t.Fatal("I*A != A")
	}
}

func TestGEMMAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := Random(4, 5, rng), Random(5, 3, rng)
	c0 := Random(4, 3, rng)
	c := c0.Clone()
	GEMM(2, a, b, 3, c)
	ref := naiveMul(a, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			want := 2*ref.At(i, j) + 3*c0.At(i, j)
			if d := c.At(i, j) - want; d > 1e-12 || d < -1e-12 {
				t.Fatalf("GEMM(2,..,3) wrong at (%d,%d): %v vs %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestGEMMBetaZeroOverwritesGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := Random(3, 3, rng), Random(3, 3, rng)
	c := Random(3, 3, rng) // garbage destination
	GEMM(1, a, b, 0, c)
	if !c.EqualApprox(naiveMul(a, b), 1e-12) {
		t.Fatal("beta=0 did not overwrite destination")
	}
}

func TestGEMMAlphaZeroScalesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b := Random(3, 3, rng), Random(3, 3, rng)
	c0 := Random(3, 3, rng)
	c := c0.Clone()
	GEMM(0, a, b, 2, c)
	want := c0.Clone()
	Scale(want, 2)
	if !c.EqualApprox(want, 1e-12) {
		t.Fatal("alpha=0 should only scale the destination")
	}
}

func TestMulAddMulSub(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := Random(4, 4, rng), Random(4, 4, rng)
	c := New(4, 4)
	MulAdd(c, a, b)
	MulSub(c, a, b)
	if NormFrob(c) > 1e-12 {
		t.Fatalf("MulAdd then MulSub should cancel, got norm %v", NormFrob(c))
	}
}

func TestMulOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	big := Random(10, 10, rng)
	a := big.View(1, 1, 4, 5)
	b := big.View(4, 3, 5, 4)
	c := New(4, 4)
	Mul(c, a, b)
	if !c.EqualApprox(naiveMul(a.Clone(), b.Clone()), 1e-12) {
		t.Fatal("Mul on strided views wrong")
	}
}

func TestMulShapeMismatch(t *testing.T) {
	defer expectPanic(t, "Mul shape")
	Mul(New(2, 2), New(2, 3), New(2, 2))
}

func TestMulTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := Random(3, 5, rng)
	b := Random(3, 4, rng)
	c := New(5, 4)
	MulTrans(c, a, b, true, false) // a^T b
	at := New(5, 3)
	Transpose(at, a)
	if !c.EqualApprox(naiveMul(at, b), 1e-12) {
		t.Fatal("MulTrans(transA) wrong")
	}
	d := New(3, 3)
	MulTrans(d, a, a, false, true) // a a^T
	if !d.EqualApprox(naiveMul(a, at), 1e-12) {
		t.Fatal("MulTrans(transB) wrong")
	}
}

// Property: blocked GEMM matches the naive triple loop on random shapes.
func TestGEMMMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		a, b := Random(m, k, r), Random(k, n, r)
		c := New(m, n)
		Mul(c, a, b)
		return c.EqualApprox(naiveMul(a, b), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication is associative, (AB)C == A(BC).
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, s, u := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a, b, c := Random(p, q, r), Random(q, s, r), Random(s, u, r)
		ab := New(p, s)
		Mul(ab, a, b)
		abc1 := New(p, u)
		Mul(abc1, ab, c)
		bc := New(q, u)
		Mul(bc, b, c)
		abc2 := New(p, u)
		Mul(abc2, a, bc)
		return abc1.EqualApprox(abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: distributivity A(B+C) == AB + AC.
func TestMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := Random(m, k, r)
		b, c := Random(k, n, r), Random(k, n, r)
		bc := New(k, n)
		Add(bc, b, c)
		left := New(m, n)
		Mul(left, a, bc)
		right := New(m, n)
		Mul(right, a, b)
		tmp := New(m, n)
		Mul(tmp, a, c)
		Add(right, right, tmp)
		return left.EqualApprox(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGEMVStridedColumn(t *testing.T) {
	// The single-column fast path must handle strided views (gathering
	// the column before the dot loop).
	rng := rand.New(rand.NewSource(21))
	a := Random(6, 6, rng)
	big := Random(6, 4, rng)
	xcol := big.Col(2) // stride 4, cols 1
	got := New(6, 1)
	Mul(got, a, xcol)
	want := naiveMul(a, xcol.Clone())
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("strided GEMV wrong")
	}
}

func TestGEMVAccumulatesWithBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := Random(4, 4, rng)
	x := Random(4, 1, rng)
	c0 := Random(4, 1, rng)
	c := c0.Clone()
	GEMM(2, a, x, 3, c)
	want := naiveMul(a, x)
	for i := 0; i < 4; i++ {
		expect := 2*want.At(i, 0) + 3*c0.At(i, 0)
		if d := c.At(i, 0) - expect; d > 1e-12 || d < -1e-12 {
			t.Fatalf("GEMV alpha/beta wrong at %d: %v vs %v", i, c.At(i, 0), expect)
		}
	}
}
