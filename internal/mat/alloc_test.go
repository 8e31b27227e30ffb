package mat

import "testing"

// Deterministic fillers for allocation tests (no rand dependency, so the
// measured closures do exactly the arithmetic under test).

func fillSeq(m *Matrix, scale float64) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, scale*float64((i*31+j*17)%23-11))
		}
	}
}

func diagDomTest(n int) *Matrix {
	m := New(n, n)
	fillSeq(m, 0.01)
	for i := 0; i < n; i++ {
		m.AddAt(i, i, float64(n))
	}
	return m
}

// TestLUSolveToAllocationFree pins the factored-solve hot path: SolveTo
// into a caller-provided destination must not touch the heap.
func TestLUSolveToAllocationFree(t *testing.T) {
	a := diagDomTest(32)
	lu, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := New(32, 8)
	fillSeq(b, 1)
	dst := New(32, 8)
	allocs := testing.AllocsPerRun(10, func() { lu.SolveTo(dst, b) })
	if allocs != 0 {
		t.Errorf("LU.SolveTo: %v allocs/op, want 0", allocs)
	}
}

// TestGEMMSerialAllocationFree pins both serial kernels: the small tiled
// loop (portable kernels; the FMA kernels pack both sizes) and the packed
// micro-kernel path (whose pack buffers come from the pool, so steady
// state allocates nothing).
func TestGEMMSerialAllocationFree(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"tiled-16", 16},  // portable: below packThreshold, plain tiled loop
		{"packed-48", 48}, // above packThreshold, below parallelThreshold
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(tc.n, tc.n)
			b := New(tc.n, tc.n)
			dst := New(tc.n, tc.n)
			fillSeq(a, 0.5)
			fillSeq(b, 0.25)
			allocs := testing.AllocsPerRun(10, func() { Mul(dst, a, b) })
			if allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestGEMVStridedAllocationFree pins the strided-column product: the
// portable gemv gathers the column into a pack-pool buffer and the FMA
// kernels read it in place, so after the first call neither allocates.
func TestGEMVStridedAllocationFree(t *testing.T) {
	a := New(64, 64)
	fillSeq(a, 0.5)
	wide := New(64, 8)
	fillSeq(wide, 0.25)
	x := wide.Col(3) // stride 8: forces the gather
	dst := New(64, 1)
	allocs := testing.AllocsPerRun(10, func() { Mul(dst, a, x) })
	if allocs != 0 {
		t.Errorf("strided gemv: %v allocs/op, want 0", allocs)
	}
}

// TestGEMMParallelAllocationBounded keeps the parallel path honest: it may
// spawn goroutines (closure + stack bookkeeping) but must not scale
// allocations with the operand size — the pack buffers are pooled.
func TestGEMMParallelAllocationBounded(t *testing.T) {
	prev := ParallelEnabled()
	defer SetParallel(prev)
	SetParallel(true)
	n := 128 // above parallelThreshold
	a := New(n, n)
	b := New(n, n)
	dst := New(n, n)
	fillSeq(a, 0.5)
	fillSeq(b, 0.25)
	allocs := testing.AllocsPerRun(10, func() { Mul(dst, a, b) })
	if allocs > 32 {
		t.Errorf("parallel GEMM: %v allocs/op, want <= 32 (goroutine bookkeeping only)", allocs)
	}
}

// TestMulAddPackedAllocationFree pins the panelized solve-phase contract:
// with the A-panel packed once into a caller-provided arena slice and the
// B-scratch supplied per call, MulAddPacked touches the heap zero times —
// for every panel width the ARD solve issues, including R=1, which runs the
// narrow FMA kernel on B in place or, on the portable kernels, falls back
// to the unpacked GEMM path.
func TestMulAddPackedAllocationFree(t *testing.T) {
	prev := ParallelEnabled()
	defer SetParallel(prev)
	SetParallel(false)
	a := New(8, 16)
	fillSeq(a, 0.5)
	buf := make([]float64, PackALen(8, 16))
	pa := PackAInto(buf, 1, a)
	for _, r := range []int{1, 64, 256} {
		b := New(16, r)
		fillSeq(b, 0.25)
		dst := New(8, r)
		bs := make([]float64, PackBLen(16, r))
		MulAddPacked(dst, pa, b, bs) // warm any pool the fallback touches
		allocs := testing.AllocsPerRun(10, func() { MulAddPacked(dst, pa, b, bs) })
		if allocs != 0 {
			t.Errorf("MulAddPacked R=%d: %v allocs/op, want 0", r, allocs)
		}
	}
}

// TestPackAIntoAllocationFree pins the pack step itself: packing into a
// pre-sized arena slice performs exactly one allocation ever (the frozen
// source header, made at pack time so the hot solve loop stays clean), and
// repacking into the same buffer reuses nothing from the heap beyond it.
func TestPackAIntoAllocationFree(t *testing.T) {
	a := New(8, 16)
	fillSeq(a, 0.5)
	buf := make([]float64, PackALen(8, 16))
	allocs := testing.AllocsPerRun(10, func() { _ = PackAInto(buf, 1, a) })
	if allocs > 1 {
		t.Errorf("PackAInto: %v allocs/op, want <= 1 (the frozen source header)", allocs)
	}
}
