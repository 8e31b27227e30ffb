package mat

// Workspace is a checkout/reset arena for the scratch a solver needs during
// a solve: float slabs for matrix storage, an int arena for pivot vectors,
// and pools of reusable Matrix and LU headers. A solver checks scratch out
// with Get/GetNoClear/CloneOf/View/LU and returns everything at once with
// Reset; after the arena has grown to the high-water mark of one solve,
// subsequent solves perform no heap allocation at all.
//
// Discipline (see docs/PERFORMANCE.md):
//
//   - A Workspace is owned by exactly one goroutine (one rank); it is not
//     safe for concurrent use.
//   - Reset invalidates every matrix, view, slice and LU previously checked
//     out: their storage will be handed to the next checkout. Never let a
//     workspace-backed value outlive the Reset of its arena.
//   - Workspace-backed matrices obey the same aliasing contract as any
//     other Matrix (the matalias analyzer applies): distinct checkouts
//     never overlap until Reset recycles them.
type Workspace struct {
	slabs [][]float64
	si    int // slab currently being carved
	off   int // watermark within slabs[si]

	islabs [][]int
	isi    int
	ioff   int

	hdrs []*Matrix
	hi   int

	lus []*LU
	lui int
}

// minSlabFloats is the size of the first float slab (32 KiB). Subsequent
// slabs double, so a workspace reaches any steady-state footprint within
// O(log footprint) allocations.
const minSlabFloats = 1 << 12

const minSlabInts = 1 << 8

// NewWorkspace returns an empty workspace. It allocates nothing until the
// first checkout.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reserve sizes the arena for a demand known up front: the next floats
// float64 values and ints int values of checkouts come from one new slab
// each (or from room the arena already has), so a store filled once, such
// as a rank's factor-phase state, costs exactly one allocation per kind
// and retains no doubling slack.
func (w *Workspace) Reserve(floats, ints int) {
	if floats > 0 {
		w.slabs = append(w.slabs, make([]float64, floats))
	}
	if ints > 0 {
		w.islabs = append(w.islabs, make([]int, ints))
	}
}

// Reset returns every checkout to the arena. Previously returned matrices,
// views, int slices and LU factorizations become invalid: their storage is
// reused by subsequent checkouts.
func (w *Workspace) Reset() {
	w.si, w.off = 0, 0
	w.isi, w.ioff = 0, 0
	w.hi = 0
	w.lui = 0
}

// Floats checks out a slice of n float64 values with unspecified contents.
func (w *Workspace) Floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	for {
		if w.si < len(w.slabs) {
			s := w.slabs[w.si]
			if w.off+n <= len(s) {
				out := s[w.off : w.off+n : w.off+n]
				w.off += n
				return out
			}
			w.si++
			w.off = 0
			continue
		}
		size := minSlabFloats
		if len(w.slabs) > 0 {
			size = 2 * len(w.slabs[len(w.slabs)-1])
		}
		for size < n {
			size *= 2
		}
		w.slabs = append(w.slabs, make([]float64, size))
	}
}

// Ints checks out a slice of n ints with unspecified contents.
func (w *Workspace) Ints(n int) []int {
	if n == 0 {
		return nil
	}
	for {
		if w.isi < len(w.islabs) {
			s := w.islabs[w.isi]
			if w.ioff+n <= len(s) {
				out := s[w.ioff : w.ioff+n : w.ioff+n]
				w.ioff += n
				return out
			}
			w.isi++
			w.ioff = 0
			continue
		}
		size := minSlabInts
		if len(w.islabs) > 0 {
			size = 2 * len(w.islabs[len(w.islabs)-1])
		}
		for size < n {
			size *= 2
		}
		w.islabs = append(w.islabs, make([]int, size))
	}
}

// header checks out a pooled Matrix header.
func (w *Workspace) header() *Matrix {
	if w.hi == len(w.hdrs) {
		w.growHeaders()
	}
	m := w.hdrs[w.hi]
	w.hi++
	return m
}

// growHeaders doubles the header pool in one chunk, so n checkouts from a
// cold arena cost O(log n) allocations rather than n.
func (w *Workspace) growHeaders() {
	chunk := make([]Matrix, max(len(w.hdrs), 8))
	for k := range chunk {
		w.hdrs = append(w.hdrs, &chunk[k])
	}
}

// GetNoClear checks out an r x c matrix with unspecified contents. Use Get
// when the caller accumulates into the matrix and needs zeros.
func (w *Workspace) GetNoClear(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("mat: workspace checkout with negative dimensions")
	}
	m := w.header()
	m.Rows, m.Cols, m.Stride = r, c, c
	m.Data = w.Floats(r * c)
	return m
}

// Get checks out a zeroed r x c matrix.
func (w *Workspace) Get(r, c int) *Matrix {
	m := w.GetNoClear(r, c)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// CloneOf checks out a contiguous deep copy of src.
func (w *Workspace) CloneOf(src *Matrix) *Matrix {
	m := w.GetNoClear(src.Rows, src.Cols)
	m.CopyFrom(src)
	return m
}

// View returns a sub-matrix view of m backed by a pooled header, with the
// same semantics as (*Matrix).View. Hot solve loops use this instead of
// View so that header escape cannot reintroduce per-iteration allocation.
func (w *Workspace) View(m *Matrix, i, j, r, c int) *Matrix {
	return m.ViewInto(w.header(), i, j, r, c)
}

// LU checks out an arena-backed pivoted LU factorization of a. The input is
// not modified. The returned factorization (its packed factors and pivot
// vector) lives in the workspace and is invalidated by Reset.
func (w *Workspace) LU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	if w.lui == len(w.lus) {
		// Chunked like the header pool.
		chunk := make([]LU, max(len(w.lus), 4))
		for k := range chunk {
			w.lus = append(w.lus, &chunk[k])
		}
	}
	lu := w.lus[w.lui]
	w.lui++
	lu.factors = w.CloneOf(a)
	lu.Piv = w.Ints(a.Rows)
	lu.sign = 1
	if err := lu.factorize(); err != nil {
		return nil, err
	}
	return lu, nil
}
