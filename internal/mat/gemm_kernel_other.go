//go:build !amd64

package mat

// Non-amd64 fallbacks: no vector kernel, so the panel width stays at the
// portable 4x4 scalar micro-kernel and these stubs are never reached.

func avx512Available() bool { return false }

func kernel8x8Asm(k int, pa, pb, dst *float64, stride int) {
	panic("mat: kernel8x8Asm without AVX-512")
}

func fmaPackedAsm(k int, pa, b *float64, ldb, n int, dst *float64, ldd, mr int) {
	panic("mat: fmaPackedAsm without AVX-512")
}

func fmaRowsAsm(k int, a *float64, lda int, sign uint64, b *float64, ldb, n int, dst *float64, ldd, mr int) {
	panic("mat: fmaRowsAsm without AVX-512")
}

func fmaColAsm(k int, pa0, pa1, b *float64, ldb int, dst *float64, mr int) {
	panic("mat: fmaColAsm without AVX-512")
}

func fmaColPairAsm(k1 int, a0, a1, b *float64, ldb, k2 int, c0, c1, y *float64, ldy int, dst *float64, mr int) {
	panic("mat: fmaColPairAsm without AVX-512")
}

func substitute1Asm(n int, f *float64, ldf int, b *float64, ldb int) {
	panic("mat: substitute1Asm without AVX-512")
}

func substitute2Asm(n int, f *float64, ldf int, b *float64, ldb int) {
	panic("mat: substitute2Asm without AVX-512")
}

func substitute4Asm(n int, f *float64, ldf int, b *float64, ldb int) {
	panic("mat: substitute4Asm without AVX-512")
}

func axpyAsm(alpha float64, x, y *float64, n int) {
	panic("mat: axpyAsm without AVX-512")
}

func packColsAsm(k int, src *float64, stride int, dst *float64) {
	panic("mat: packColsAsm without AVX-512")
}
