package blocktri

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"blocktri/internal/mat"
)

func TestNewStructure(t *testing.T) {
	a := New(4, 3)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Lower[0] != nil || a.Upper[3] != nil {
		t.Fatal("corner blocks must be nil")
	}
	if a.Lower[1] == nil || a.Diag[0] == nil || a.Upper[2] == nil {
		t.Fatal("interior blocks must be allocated")
	}
}

func TestNewSingleBlockRow(t *testing.T) {
	a := New(1, 2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Lower[0] != nil || a.Upper[0] != nil {
		t.Fatal("N=1 must have no off-diagonal blocks")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 3)
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := New(3, 2)
	a.Diag[1] = nil
	if a.Validate() == nil {
		t.Fatal("nil diag not caught")
	}
	a = New(3, 2)
	a.Upper[0] = mat.New(2, 3)
	if a.Validate() == nil {
		t.Fatal("misshapen block not caught")
	}
	a = New(3, 2)
	a.Lower[0] = mat.New(2, 2)
	if a.Validate() == nil {
		t.Fatal("non-nil corner block not caught")
	}
	a = New(3, 2)
	a.Upper = a.Upper[:2]
	if a.Validate() == nil {
		t.Fatal("short band slice not caught")
	}
}

func TestDenseLayout(t *testing.T) {
	a := New(2, 2)
	a.Diag[0].Set(0, 0, 1)
	a.Upper[0].Set(1, 1, 2)
	a.Lower[1].Set(0, 1, 3)
	a.Diag[1].Set(1, 1, 4)
	d := a.Dense()
	if d.Rows != 4 || d.Cols != 4 {
		t.Fatalf("dense shape %dx%d", d.Rows, d.Cols)
	}
	if d.At(0, 0) != 1 || d.At(1, 3) != 2 || d.At(2, 1) != 3 || d.At(3, 3) != 4 {
		t.Fatalf("dense placement wrong:\n%v", d)
	}
	// The two untouched 2x2 corners must be zero.
	if mat.NormFrob(d.View(0, 2, 2, 2)) == 0 && d.At(1, 3) != 2 {
		t.Fatal("unexpected corner zeroing")
	}
}

func TestMatVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{1, 3}, {2, 1}, {5, 4}, {9, 2}} {
		n, m := dims[0], dims[1]
		a := RandomDiagDominant(n, m, rng)
		x := mat.Random(n*m, 3, rng)
		got := a.MatVec(x)
		want := mat.New(n*m, 3)
		mat.Mul(want, a.Dense(), x)
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("N=%d M=%d: MatVec != Dense*x", n, m)
		}
	}
}

func TestMatVecShapeCheck(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.MatVec(mat.New(3, 1))
}

func TestResidualZeroForExactSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomDiagDominant(4, 3, rng)
	x := mat.Random(12, 2, rng)
	b := a.MatVec(x)
	if rr := a.RelResidual(x, b); rr > 1e-14 {
		t.Fatalf("relative residual %v for exact solution", rr)
	}
	r := a.Residual(x, b)
	if mat.NormFrob(r) > 1e-12 {
		t.Fatalf("residual norm %v for exact solution", mat.NormFrob(r))
	}
}

func TestRelResidualZeroB(t *testing.T) {
	a := Poisson2D(3, 3)
	x := mat.New(9, 1)
	x.Set(0, 0, 1)
	b := mat.New(9, 1)
	if rr := a.RelResidual(x, b); rr <= 0 {
		t.Fatal("RelResidual with zero b should return absolute norm > 0")
	}
}

func TestCloneDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomDiagDominant(3, 2, rng)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Diag[1].Set(0, 0, 1e9)
	if a.Equal(c) {
		t.Fatal("clone shares storage")
	}
}

func TestEqualShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomDiagDominant(3, 2, rng)
	b := RandomDiagDominant(4, 2, rng)
	if a.Equal(b) {
		t.Fatal("different N compared equal")
	}
}

func TestNormFrobMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomDiagDominant(6, 3, rng)
	got := a.NormFrob()
	want := mat.NormFrob(a.Dense())
	if math.Abs(got-want) > 1e-10*want {
		t.Fatalf("NormFrob %v vs dense %v", got, want)
	}
}

func TestRandomDiagDominantIsDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandomDiagDominant(5, 4, rng)
	d := a.Dense()
	for i := 0; i < d.Rows; i++ {
		off := 0.0
		for j := 0; j < d.Cols; j++ {
			if j != i {
				off += math.Abs(d.At(i, j))
			}
		}
		if math.Abs(d.At(i, i)) <= off {
			t.Fatalf("dense row %d not strictly dominant", i)
		}
	}
	// Upper blocks must be invertible (required by recursive doubling).
	for i := 0; i < a.N-1; i++ {
		if _, err := mat.Factor(a.Upper[i]); err != nil {
			t.Fatalf("Upper[%d] singular: %v", i, err)
		}
	}
}

func TestPoisson2DStructure(t *testing.T) {
	a := Poisson2D(3, 4)
	if a.N != 4 || a.M != 3 {
		t.Fatalf("shape N=%d M=%d", a.N, a.M)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	d := a.Diag[0]
	if d.At(0, 0) != 4 || d.At(0, 1) != -1 || d.At(1, 0) != -1 || d.At(0, 2) != 0 {
		t.Fatalf("diag block wrong:\n%v", d)
	}
	if a.Upper[0].At(1, 1) != -1 || a.Upper[0].At(0, 1) != 0 {
		t.Fatal("upper block should be -I")
	}
	// Dense Poisson must be symmetric.
	dd := a.Dense()
	for i := 0; i < dd.Rows; i++ {
		for j := 0; j < dd.Cols; j++ {
			if dd.At(i, j) != dd.At(j, i) {
				t.Fatalf("Poisson dense not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestConvectionDiffusionReducesToPoisson(t *testing.T) {
	p := Poisson2D(4, 3)
	c := ConvectionDiffusion(4, 3, 0)
	if !p.Equal(c) {
		t.Fatal("peclet=0 convection-diffusion != Poisson")
	}
	c2 := ConvectionDiffusion(4, 3, 0.5)
	d := c2.Dense()
	sym := true
	for i := 0; i < d.Rows && sym; i++ {
		for j := 0; j < d.Cols; j++ {
			if d.At(i, j) != d.At(j, i) {
				sym = false
				break
			}
		}
	}
	if sym {
		t.Fatal("nonzero peclet should be non-symmetric")
	}
}

func TestBlockToeplitzRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := BlockToeplitz(5, 3, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 5; i++ {
		if !a.Diag[i].Equal(a.Diag[1]) || !a.Lower[i].Equal(a.Lower[1]) {
			t.Fatal("Toeplitz blocks differ between rows")
		}
	}
	// Must still be dominant enough to be nonsingular.
	if _, err := mat.Factor(a.Dense()); err != nil {
		t.Fatalf("Toeplitz dense singular: %v", err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][2]int{{1, 1}, {2, 3}, {7, 2}} {
		a := RandomDiagDominant(dims[0], dims[1], rng)
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("round trip mismatch at N=%d M=%d", dims[0], dims[1])
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short input accepted")
	}
	var buf bytes.Buffer
	a := Poisson2D(2, 2)
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xff // corrupt magic
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated payload.
	buf.Reset()
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-4])); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// A bare 24-byte header asking for one 2^24 x 2^24 block, within the
	// dimension limit: Read must fail on the missing data, not allocate
	// for the promised block.
	hdr := binary.LittleEndian.AppendUint64(nil, magic)
	hdr = binary.LittleEndian.AppendUint64(hdr, 1)
	hdr = binary.LittleEndian.AppendUint64(hdr, 1<<24)
	if _, err := Read(bytes.NewReader(hdr)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header-only input: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestWriteToValidates(t *testing.T) {
	a := New(2, 2)
	a.Diag[0] = nil
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err == nil {
		t.Fatal("WriteTo accepted invalid matrix")
	}
}

// Property: serialization round-trips exactly for arbitrary sizes, and
// MatVec on the round-tripped matrix is bit-identical.
func TestSerializationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(8), 1+r.Intn(5)
		a := RandomDiagDominant(n, m, r)
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			return false
		}
		b, err := Read(&buf)
		if err != nil || !a.Equal(b) {
			return false
		}
		x := mat.Random(n*m, 2, r)
		return a.MatVec(x).Equal(b.MatVec(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: dense expansion and MatVec agree for every generator family.
func TestGeneratorsMatVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(6), 1+r.Intn(4)
		mats := []*Matrix{
			RandomDiagDominant(n, m, r),
			Poisson2D(m, n),
			ConvectionDiffusion(m, n, 0.3),
			BlockToeplitz(n, m, r),
		}
		for _, a := range mats {
			if err := a.Validate(); err != nil {
				return false
			}
			x := mat.Random(a.N*a.M, 1, r)
			want := mat.New(a.N*a.M, 1)
			mat.Mul(want, a.Dense(), x)
			if !a.MatVec(x).EqualApprox(want, 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOscillatoryProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n, m := 2+rng.Intn(10), 1+rng.Intn(5)
		a := Oscillatory(n, m, rng)
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		// Diagonal blocks have Gershgorin radius below 2.
		for i := 0; i < n; i++ {
			for r := 0; r < m; r++ {
				sum := 0.0
				for c := 0; c < m; c++ {
					sum += math.Abs(a.Diag[i].At(r, c))
				}
				if sum >= 2 {
					t.Fatalf("diag row sum %v >= 2", sum)
				}
			}
		}
		// Off-diagonal blocks are exactly the identity.
		if !a.Upper[0].Equal(mat.Identity(m)) || !a.Lower[n-1].Equal(mat.Identity(m)) {
			t.Fatal("off-diagonal blocks must be identity")
		}
		// The dense expansion is symmetric and (generically) nonsingular.
		d := a.Dense()
		if _, err := mat.Factor(d); err != nil {
			t.Fatalf("oscillatory matrix singular: %v", err)
		}
	}
}
