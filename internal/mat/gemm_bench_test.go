package mat

import "testing"

// BenchmarkGEMVStridedColumn measures the matrix-vector fast path for both
// column layouts: a contiguous vector (stride 1, streamed directly) and a
// strided column view of a wider matrix (gathered once into a pooled buffer,
// then streamed). Before the pooled gather the strided case allocated a
// fresh gather buffer per call (1 alloc/op, ~2.6us at 64x64 on the baseline
// machine); with the pool it reports 0 allocs/op and the delta against the
// contiguous case is just the gather's O(n) copy.
func BenchmarkGEMVStridedColumn(b *testing.B) {
	const n = 64
	a := New(n, n)
	fillSeq(a, 0.5)
	wide := New(n, 8)
	fillSeq(wide, 0.25)
	dst := New(n, 1)

	b.Run("contiguous", func(b *testing.B) {
		x := New(n, 1)
		fillSeq(x, 0.25)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Mul(dst, a, x)
		}
	})
	b.Run("strided", func(b *testing.B) {
		x := wide.Col(3) // stride 8: forces the pooled gather
		Mul(dst, a, x)   // warm the pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Mul(dst, a, x)
		}
	})
}
