package mat

import "os"

// AVX-512 support for the dense kernels. When the CPU and OS expose the
// full ZMM state, every product with k >= 8 and every LU substitution runs
// on the FMA kernels below; otherwise the portable scalar loops carry the
// whole package. Detection happens once before main, so the dispatch — and
// with it the floating-point reduction order of every product — is fixed
// for the life of the process.
//
// The kernels share one arithmetic: an output element is a single FMA
// chain over k in ascending order, started from zero, added into dst once
// (the substitution applies its row updates in a fixed order instead).
// Lanes are independent, so a column's bits never depend on the width of
// the panel it was solved in.

// kernel8x8Asm adds one full 8x8 tile of packed panels into dst: the
// arithmetic of fmaPackedAsm, with unmasked loads and stores.
//
//go:noescape
func kernel8x8Asm(k int, pa, pb, dst *float64, stride int)

// fmaPackedAsm adds panelA*B into the first mr rows and n columns of dst,
// where panelA is one k-major 8-row packed panel and B's rows are ldb
// elements apart (n, mr in [1, 8]).
//
//go:noescape
func fmaPackedAsm(k int, pa, b *float64, ldb, n int, dst *float64, ldd, mr int)

// fmaRowsAsm is fmaPackedAsm reading the first mr rows of a row-major A in
// place (row stride lda); sign = 1<<63 negates A.
//
//go:noescape
func fmaRowsAsm(k int, a *float64, lda int, sign uint64, b *float64, ldb, n int, dst *float64, ldd, mr int)

// substitute1Asm, substitute2Asm and substitute4Asm run the forward and
// back substitution of an n x n LU factorization (factors f, row stride
// ldf) on one, two or four adjacent columns of b.
//
//go:noescape
func substitute1Asm(n int, f *float64, ldf int, b *float64, ldb int)

//go:noescape
func substitute2Asm(n int, f *float64, ldf int, b *float64, ldb int)

//go:noescape
func substitute4Asm(n int, f *float64, ldf int, b *float64, ldb int)

// axpyAsm computes y[0:n] += alpha*x[0:n] with one FMA per element.
//
//go:noescape
func axpyAsm(alpha float64, x, y *float64, n int)

//go:noescape
func packColsAsm(k int, src *float64, stride int, dst *float64)

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// avx512Available reports whether the processor supports AVX-512F and the
// operating system saves the ZMM and opmask register state (XCR0 bits
// SSE|AVX|opmask|ZMM_Hi256|Hi16_ZMM). BLOCKTRI_NOAVX512 forces the scalar
// path for debugging and cross-machine bit comparisons.
func avx512Available() bool {
	if os.Getenv("BLOCKTRI_NOAVX512") != "" {
		return false
	}
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}
