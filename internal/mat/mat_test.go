package mat

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewFromSlice(t *testing.T) {
	m := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("row-major fill wrong: %v", m)
	}
}

func TestNewFromSlicePanicsOnWrongLen(t *testing.T) {
	defer expectPanic(t, "NewFromSlice")
	NewFromSlice(2, 2, []float64{1, 2, 3})
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer expectPanic(t, "New")
	New(-1, 2)
}

// A size whose product wraps to 0 must not yield a huge matrix over no
// storage.
func TestNewPanicsOnOverflow(t *testing.T) {
	const half = 1 << (bits.UintSize / 2) // half*half wraps to 0
	for name, f := range map[string]func(){
		"New":          func() { New(half, half) },
		"NewFromSlice": func() { NewFromSlice(half, half, nil) },
	} {
		func() {
			defer expectPanic(t, name)
			f()
		}()
	}
}

func TestSetAtAddAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 5)
	m.AddAt(1, 0, 2.5)
	if got := m.At(1, 0); got != 7.5 {
		t.Fatalf("got %v want 7.5", got)
	}
}

func TestAtBounds(t *testing.T) {
	m := New(2, 2)
	defer expectPanic(t, "At out of range")
	_ = m.At(2, 0)
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("identity (%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if d.Rows != 3 || d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatalf("diag wrong: %v", d)
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := NewFromSlice(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	v := m.View(1, 1, 2, 2)
	if v.At(0, 0) != 5 || v.At(1, 1) != 9 {
		t.Fatalf("view contents wrong: %v", v)
	}
	v.Set(0, 0, 50)
	if m.At(1, 1) != 50 {
		t.Fatal("write through view not visible in parent")
	}
	if !v.IsView() {
		t.Fatal("IsView false for a strided view")
	}
	if m.IsView() {
		t.Fatal("IsView true for a contiguous matrix")
	}
}

func TestViewBounds(t *testing.T) {
	m := New(3, 3)
	defer expectPanic(t, "View out of range")
	m.View(2, 2, 2, 2)
}

func TestEmptyView(t *testing.T) {
	m := New(3, 3)
	v := m.View(1, 1, 0, 2)
	if v.Rows != 0 || v.Cols != 2 {
		t.Fatalf("empty view shape wrong: %+v", v)
	}
}

func TestRowColViews(t *testing.T) {
	m := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r := m.Row(1)
	if r.Rows != 1 || r.Cols != 3 || r.At(0, 2) != 6 {
		t.Fatalf("row view wrong: %v", r)
	}
	c := m.Col(2)
	if c.Rows != 2 || c.Cols != 1 || c.At(1, 0) != 6 {
		t.Fatalf("col view wrong: %v", c)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestCloneOfViewContiguous(t *testing.T) {
	m := NewFromSlice(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	c := m.View(0, 1, 3, 2).Clone()
	if c.IsView() {
		t.Fatal("clone of view should be contiguous")
	}
	want := NewFromSlice(3, 2, []float64{2, 3, 5, 6, 8, 9})
	if !c.Equal(want) {
		t.Fatalf("clone of view wrong:\n%v", c)
	}
}

func TestCopyFromShapeMismatch(t *testing.T) {
	defer expectPanic(t, "CopyFrom")
	New(2, 2).CopyFrom(New(2, 3))
}

func TestZeroAndSetIdentityOnView(t *testing.T) {
	m := Random(4, 4, rand.New(rand.NewSource(1)))
	v := m.View(1, 1, 2, 2)
	v.SetIdentity()
	if v.At(0, 0) != 1 || v.At(0, 1) != 0 || v.At(1, 1) != 1 {
		t.Fatalf("SetIdentity on view wrong: %v", v)
	}
	// Elements outside the view must be untouched (non-zero with high
	// probability from Random; check a corner is not forcibly zeroed).
	if m.At(0, 0) == 0 && m.At(3, 3) == 0 {
		t.Fatal("SetIdentity on view leaked outside the view")
	}
}

// TestZeroClearsExactlyTheMatrix covers both of Zero's paths: a
// contiguous matrix, including a full-width row band of a parent, is
// cleared in one call, and a view narrower than its parent clears its own
// columns and keeps the parent's others.
func TestZeroClearsExactlyTheMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Random(5, 4, rng)
	m.Zero()
	if !m.Equal(New(5, 4)) {
		t.Fatalf("contiguous Zero left %v", m)
	}
	p := Random(5, 4, rng)
	want := p.Clone()
	p.View(1, 0, 3, 4).Zero() // full-width band: contiguous
	for i := 1; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want.Set(i, j, 0)
		}
	}
	p.View(0, 1, 5, 2).Zero() // narrower than its parent: row by row
	for i := 0; i < 5; i++ {
		want.Set(i, 1, 0)
		want.Set(i, 2, 0)
	}
	if !p.Equal(want) {
		t.Fatalf("Zero on views: got\n%v want\n%v", p, want)
	}
	New(0, 3).Zero() // empty: no panic
}

func TestEqualAndApprox(t *testing.T) {
	a := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	b := NewFromSlice(2, 2, []float64{1, 2, 3, 4 + 1e-12})
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.EqualApprox(b, 1e-9) {
		t.Fatal("EqualApprox should accept tiny difference")
	}
	if a.EqualApprox(New(2, 3), 1) {
		t.Fatal("EqualApprox must reject shape mismatch")
	}
	nan := NewFromSlice(1, 1, []float64{math.NaN()})
	if nan.EqualApprox(NewFromSlice(1, 1, []float64{0}), 1) {
		t.Fatal("EqualApprox must reject NaN")
	}
}

func TestStringContainsShape(t *testing.T) {
	s := New(2, 3).String()
	if !strings.HasPrefix(s, "2x3") {
		t.Fatalf("String missing shape header: %q", s)
	}
}

func TestRandomRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Random(10, 10, rng)
	for _, v := range m.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("Random out of [-1,1): %v", v)
		}
	}
}

func TestRandomDiagDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		m := RandomDiagDominant(n, 0.5, rng)
		for i := 0; i < n; i++ {
			off := 0.0
			for j := 0; j < n; j++ {
				if j != i {
					off += math.Abs(m.At(i, j))
				}
			}
			if math.Abs(m.At(i, i)) < off+0.49 {
				t.Fatalf("row %d not diagonally dominant", i)
			}
		}
	}
}

func TestRandomSPDSymmetricPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := RandomSPD(6, rng)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > 1e-12 {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
		}
		if m.At(i, i) <= 0 {
			t.Fatalf("diagonal %d not positive", i)
		}
	}
	// Positive definiteness: x^T M x > 0 for random x.
	for trial := 0; trial < 10; trial++ {
		x := Random(6, 1, rng)
		mx := New(6, 1)
		Mul(mx, m, x)
		if Dot(x, mx) <= 0 {
			t.Fatal("x^T M x <= 0 for SPD matrix")
		}
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, -7, 3, 2})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if New(0, 0).MaxAbs() != 0 {
		t.Fatal("MaxAbs of empty should be 0")
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", what)
	}
}
