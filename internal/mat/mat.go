// Package mat implements the dense linear algebra substrate used by the
// block tridiagonal solvers: a row-major float64 matrix type with blocked
// and packed matrix multiplication, pivoted LU factorization,
// triangular solves with multiple right-hand sides, matrix inversion and the
// standard norms.
//
// The package is self-contained (standard library only) and plays the role
// that a vendor BLAS/LAPACK played in the original paper's experiments: the
// recursive doubling algorithms only care about the asymptotic M^3 / M^2
// cost split of these kernels, which this implementation preserves.
package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible matrix shapes")

// ErrSingular is returned by factorizations when the matrix is exactly
// singular (a zero pivot was encountered even after row pivoting).
var ErrSingular = errors.New("mat: matrix is singular")

// Matrix is a dense row-major matrix of float64 values.
//
// Element (i, j) is stored at Data[i*Stride+j]. A Matrix may be a view into
// a larger matrix, in which case Stride > Cols and mutations are visible to
// the parent. The zero value is an empty 0x0 matrix.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New returns a freshly allocated zero matrix with r rows and c columns.
// It panics if either dimension is negative or r*c overflows an int.
func New(r, c int) *Matrix {
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, area(r, c))}
}

// area returns r*c, panicking if either dimension is negative or the
// product overflows an int.
func area(r, c int) int {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	if c != 0 && r > math.MaxInt/c {
		panic(fmt.Sprintf("mat: dimensions %dx%d overflow an int", r, c))
	}
	return r * c
}

// NewFromSlice returns an r x c matrix whose rows are filled from data in
// row-major order. The slice is copied. It panics if len(data) != r*c, or
// on dimensions New rejects.
func NewFromSlice(r, c int, data []float64) *Matrix {
	if n := area(r, c); len(data) != n {
		panic(fmt.Sprintf("mat: NewFromSlice: need %d values, got %d", n, len(data)))
	}
	m := New(r, c)
	copy(m.Data, data)
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// Diag returns a square matrix with the given values on the diagonal.
func Diag(v []float64) *Matrix {
	m := New(len(v), len(v))
	for i, x := range v {
		m.Data[i*m.Stride+i] = x
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Stride+j] = v
}

// AddAt adds v to the element at row i, column j.
func (m *Matrix) AddAt(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Stride+j] += v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// IsView reports whether the matrix shares storage with a larger parent,
// i.e. whether its rows are not contiguous.
func (m *Matrix) IsView() bool { return m.Stride != m.Cols }

// View returns a sub-matrix view of r rows and c columns starting at
// (i, j). The view shares storage with m; writes through the view are
// visible in m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	return m.ViewInto(new(Matrix), i, j, r, c)
}

// ViewInto points the header dst at the (i, j, r, c) sub-matrix view of m
// and returns it. It backs View (fresh header) and Workspace.View (pooled
// header); a hot loop re-points one header per iteration with it instead
// of checking out a fresh one.
func (m *Matrix) ViewInto(dst *Matrix, i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("mat: view (%d,%d,%d,%d) out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	// Field by field, not *dst = Matrix{...}: the composite literal goes
	// through a stack temporary written with 8-byte stores and copied out
	// with 16-byte loads, which store forwarding cannot serve, and the
	// stall made this the hottest instruction of the one-column solve.
	dst.Rows, dst.Cols, dst.Stride = r, c, m.Stride
	if r == 0 || c == 0 {
		dst.Data = nil
		return dst
	}
	dst.Data = m.Data[i*m.Stride+j : (i+r-1)*m.Stride+j+c]
	return dst
}

// Row returns a view of row i as a 1 x Cols matrix.
func (m *Matrix) Row(i int) *Matrix { return m.View(i, 0, 1, m.Cols) }

// Col returns a view of column j as a Rows x 1 matrix.
func (m *Matrix) Col(j int) *Matrix { return m.View(0, j, m.Rows, 1) }

// Clone returns a newly allocated deep copy of m with contiguous storage.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies the elements of src into m. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	if m.Stride == m.Cols && src.Stride == src.Cols {
		// Both sides contiguous: one bulk copy instead of a per-row call.
		// The hot solve paths copy M x R panels whose views are full-width,
		// so this is the common case.
		copy(m.Data[:m.Rows*m.Cols], src.Data[:src.Rows*src.Cols])
		return
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+m.Cols])
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	if m.Stride == m.Cols {
		// Contiguous rows: one bulk clear instead of a loop per row. The
		// hot solve paths clear M x R panels whose views are full-width,
		// so this is the common case.
		clear(m.Data[:m.Rows*m.Cols])
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// SetIdentity sets m, which must be square, to the identity matrix.
func (m *Matrix) SetIdentity() {
	if m.Rows != m.Cols {
		panic("mat: SetIdentity on non-square matrix")
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Stride+i] = 1
	}
}

// Equal reports whether m and n have identical shape and elements.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		b := n.Data[i*n.Stride : i*n.Stride+n.Cols]
		for j := range a {
			//lint:ignore floateq Equal's contract is exact elementwise equality; EqualApprox is the tolerant variant.
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// EqualApprox reports whether m and n have identical shape and all elements
// within absolute tolerance tol of each other.
func (m *Matrix) EqualApprox(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		b := n.Data[i*n.Stride : i*n.Stride+n.Cols]
		for j := range a {
			d := a[j] - b[j]
			if d != d || d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging, one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "% .6g", m.Data[i*m.Stride+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Random returns an r x c matrix with independent entries uniform in
// [-1, 1), drawn from rng.
func Random(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomDiagDominant returns an n x n random matrix made strictly row
// diagonally dominant by setting each diagonal entry to the row's
// off-diagonal absolute sum plus margin. Such matrices are nonsingular and
// well conditioned, which makes them suitable as reference problems.
func RandomDiagDominant(n int, margin float64, rng *rand.Rand) *Matrix {
	m := Random(n, n, rng)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += math.Abs(m.Data[i*m.Stride+j])
			}
		}
		s := 1.0
		if rng.Intn(2) == 0 {
			s = -1.0
		}
		m.Data[i*m.Stride+i] = s * (sum + margin)
	}
	return m
}

// RandomSPD returns a random symmetric positive definite n x n matrix,
// built as B*B^T + n*I for a random B.
func RandomSPD(n int, rng *rand.Rand) *Matrix {
	b := Random(n, n, rng)
	out := New(n, n)
	MulTrans(out, b, b, false, true)
	for i := 0; i < n; i++ {
		out.Data[i*out.Stride+i] += float64(n)
	}
	return out
}

// MaxAbs returns the largest absolute value of any element (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > max {
				max = v
			}
		}
	}
	return max
}
