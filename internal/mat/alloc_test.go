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

// TestGEMMSerialAllocationFree pins both GEMM tiers: the small tiled
// loop (portable kernels; the FMA kernels pack both sizes) and the packed
// micro-kernel path (whose pack buffers come from the pool, so steady
// state allocates nothing).
func TestGEMMSerialAllocationFree(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"tiled-16", 16},  // portable: below packThreshold, plain tiled loop
		{"packed-48", 48}, // above packThreshold
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

// TestMulAddPackedAllocationFree pins the panelized solve-phase contract:
// with the A-panel packed once into a caller-provided arena slice and the
// B-scratch supplied per call, MulAddPacked touches the heap zero times —
// for every panel width the ARD solve issues, including R=1, which runs the
// narrow FMA kernel on B in place or, on the portable kernels, falls back
// to the unpacked GEMM path.
func TestMulAddPackedAllocationFree(t *testing.T) {
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
// pre-sized arena slice allocates at most the frozen source header, made
// at pack time so the hot solve loop stays clean, and a standalone pack,
// which never falls back to its source, allocates nothing.
func TestPackAIntoAllocationFree(t *testing.T) {
	for _, k := range []int{5, 16} {
		a := New(8, k)
		fillSeq(a, 0.5)
		buf := make([]float64, PackALen(8, k))
		want := 1.0
		if PackStandalone(8, k) {
			want = 0
		}
		allocs := testing.AllocsPerRun(10, func() { _ = PackAInto(buf, 1, a) })
		if allocs > want {
			t.Errorf("PackAInto 8x%d: %v allocs/op, want <= %v", k, allocs, want)
		}
	}
}

// TestStandalonePackNeedsNoSource checks the standalone rule and what it
// promises: a pack is standalone exactly for k >= 8 on the FMA kernels,
// and a standalone pack multiplies at every width with its source
// overwritten, bit for bit as GEMM on the original.
func TestStandalonePackNeedsNoSource(t *testing.T) {
	for _, k := range []int{1, 7, 8, 16, 32} {
		a := New(12, k)
		fillSeq(a, 0.5)
		p := NewPackedA(1, a)
		if want := FMAKernels() && k >= 8; PackStandalone(12, k) != want || p.Standalone() != want {
			t.Fatalf("k=%d: PackStandalone %v, Standalone %v, want %v", k, PackStandalone(12, k), p.Standalone(), want)
		}
		if !p.Standalone() {
			continue
		}
		orig := a.Clone()
		a.Zero()
		for _, n := range []int{1, 3, 8, 13, 64} {
			b := New(k, n)
			fillSeq(b, 0.25)
			got, want := New(12, n), New(12, n)
			MulAddPacked(got, p, b, nil)
			MulAdd(want, orig, b)
			if !got.Equal(want) {
				t.Errorf("k=%d n=%d: standalone pack differs from GEMM on its source", k, n)
			}
		}
	}
	if (PackedA{}).Standalone() {
		t.Error("the zero PackedA reports standalone")
	}
}
