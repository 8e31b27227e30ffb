// AVX-512 FMA kernels and CPU feature probes. See gemm_kernel_amd64.go for
// the Go-side contracts.
//
// Every product kernel here computes each output element as one FMA chain
// over k in ascending order, started from zero, and adds the chain's total
// into dst once; fmaColPairAsm adds two such chains, one per operand, into
// a dst it treats as zeroed, as two single-operand calls after a zeroing
// pass would. A kernel may hold a panel's rows in the lanes of one
// register (the column kernels, at one right-hand column) or one row per
// register (the others); the chains are the same. The triangular kernels
// update each element by one FMA per factor entry, in the same fixed order
// at every panel width. Lanes never interact, so an element's bits depend
// only on its own row of A (or the factors) and its own column of B, never
// on how many columns share the call.

#include "textflag.h"

// LANE_MASK sets K1 to the low CX lanes, CX in [1, 8].
#define LANE_MASK \
	MOVL $1, AX; \
	SHLQ CX, AX; \
	DECQ AX; \
	KMOVW AX, K1

// FMA_MASK sets K1 to the low n lanes, n in [1, 8], from the named argument.
#define FMA_MASK(narg) \
	MOVQ narg, CX; \
	LANE_MASK

// FMA_STORE stores accumulator acc into the masked lanes of the dst row at
// ptr and stops after CX rows.
#define FMA_STORE(acc, ptr) \
	VMOVUPD acc, K1, (ptr); \
	DECQ CX; \
	JZ   done

// FMA_WRITEBACK adds Z0..Z7 into the first mr rows of dst (dst, ldd, mr
// named by the caller's argument slots). Every row is loaded before any is
// stored: narrow rows sit closer than one vector apart, and a masked load
// that overlaps a masked store still in flight waits for it to retire.
// Rows past mr point at row 0; they are loaded but never stored.
#define FMA_WRITEBACK(dstarg, lddarg, mrarg) \
	MOVQ dstarg, DI; \
	MOVQ lddarg, R8; \
	SHLQ $3, R8; \
	MOVQ mrarg, CX; \
	LEAQ (DI)(R8*1), DX; \
	CMPQ CX, $1; \
	CMOVQLE DI, DX; \
	LEAQ (DX)(R8*1), SI; \
	CMPQ CX, $2; \
	CMOVQLE DI, SI; \
	LEAQ (SI)(R8*1), R9; \
	CMPQ CX, $3; \
	CMOVQLE DI, R9; \
	LEAQ (R9)(R8*1), R10; \
	CMPQ CX, $4; \
	CMOVQLE DI, R10; \
	LEAQ (R10)(R8*1), R11; \
	CMPQ CX, $5; \
	CMOVQLE DI, R11; \
	LEAQ (R11)(R8*1), R12; \
	CMPQ CX, $6; \
	CMOVQLE DI, R12; \
	LEAQ (R12)(R8*1), R13; \
	CMPQ CX, $7; \
	CMOVQLE DI, R13; \
	VMOVUPD.Z (DI), K1, Z16; \
	VMOVUPD.Z (DX), K1, Z17; \
	VMOVUPD.Z (SI), K1, Z18; \
	VMOVUPD.Z (R9), K1, Z19; \
	VMOVUPD.Z (R10), K1, Z20; \
	VMOVUPD.Z (R11), K1, Z21; \
	VMOVUPD.Z (R12), K1, Z22; \
	VMOVUPD.Z (R13), K1, Z23; \
	VADDPD Z16, Z0, Z0; \
	VADDPD Z17, Z1, Z1; \
	VADDPD Z18, Z2, Z2; \
	VADDPD Z19, Z3, Z3; \
	VADDPD Z20, Z4, Z4; \
	VADDPD Z21, Z5, Z5; \
	VADDPD Z22, Z6, Z6; \
	VADDPD Z23, Z7, Z7; \
	FMA_STORE(Z0, DI); \
	FMA_STORE(Z1, DX); \
	FMA_STORE(Z2, SI); \
	FMA_STORE(Z3, R9); \
	FMA_STORE(Z4, R10); \
	FMA_STORE(Z5, R11); \
	FMA_STORE(Z6, R12); \
	FMA_STORE(Z7, R13)

#define FMA_ZERO \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7

// func kernel8x8Asm(k int, pa, pb, dst *float64, stride int)
//
// One 8x8 tile of dst += panelA * panelB, where panelA and panelB are
// k-major 8-wide micro-panels (pa[k*8+i] = alpha*a[i][k], pb[k*8+j] =
// b[k][j]) and dst is row-major with the given element stride. The eight
// rows of the tile live in Z0-Z7 for the whole k loop; each iteration
// loads one B panel row into Z8 and folds the eight A values in with
// broadcast FMAs. The accumulated totals are added to dst once at the end,
// so the reduction order (k-ascending partial sums, one final add into
// dst) matches the scalar micro-kernel's and is independent of any
// parallel row-band split.
TEXT ·kernel8x8Asm(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DX
	MOVQ dst+24(FP), DI
	MOVQ stride+32(FP), R8
	SHLQ $3, R8              // element stride -> byte stride

	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7

	TESTQ CX, CX
	JZ    writeback

kloop:
	VMOVUPD (DX), Z8
	VFMADD231PD.BCST 0(SI), Z8, Z0
	VFMADD231PD.BCST 8(SI), Z8, Z1
	VFMADD231PD.BCST 16(SI), Z8, Z2
	VFMADD231PD.BCST 24(SI), Z8, Z3
	VFMADD231PD.BCST 32(SI), Z8, Z4
	VFMADD231PD.BCST 40(SI), Z8, Z5
	VFMADD231PD.BCST 48(SI), Z8, Z6
	VFMADD231PD.BCST 56(SI), Z8, Z7
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  kloop

writeback:
	VADDPD (DI), Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ R8, DI
	VADDPD (DI), Z1, Z1
	VMOVUPD Z1, (DI)
	ADDQ R8, DI
	VADDPD (DI), Z2, Z2
	VMOVUPD Z2, (DI)
	ADDQ R8, DI
	VADDPD (DI), Z3, Z3
	VMOVUPD Z3, (DI)
	ADDQ R8, DI
	VADDPD (DI), Z4, Z4
	VMOVUPD Z4, (DI)
	ADDQ R8, DI
	VADDPD (DI), Z5, Z5
	VMOVUPD Z5, (DI)
	ADDQ R8, DI
	VADDPD (DI), Z6, Z6
	VMOVUPD Z6, (DI)
	ADDQ R8, DI
	VADDPD (DI), Z7, Z7
	VMOVUPD Z7, (DI)
	VZEROUPPER
	RET

// func fmaPackedAsm(k int, pa, b *float64, ldb, n int, dst *float64, ldd, mr int)
//
// One tile of dst += panelA * B: panelA is a k-major 8-row packed panel
// (pa[kq*8+i] = alpha*a[i][kq]), B is k rows of n <= 8 columns, row kq at
// b[kq*ldb] (a packed B panel has ldb = 8; a matrix read in place has its
// own stride). Row i of the tile accumulates in Z(i) with n live lanes;
// each k step loads one masked B row into Z8 and folds in the eight A
// values by broadcast FMA. The totals are added into the first mr rows of
// dst (row stride ldd) once at the end.
TEXT ·fmaPackedAsm(SB), NOSPLIT, $0-64
	FMA_MASK(n+32(FP))
	MOVQ k+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldb+24(FP), R13
	SHLQ $3, R13             // element stride -> byte stride
	FMA_ZERO
	TESTQ CX, CX
	JZ    writeback

kloop:
	VMOVUPD.Z (DX), K1, Z8
	VFMADD231PD.BCST 0(SI), Z8, Z0
	VFMADD231PD.BCST 8(SI), Z8, Z1
	VFMADD231PD.BCST 16(SI), Z8, Z2
	VFMADD231PD.BCST 24(SI), Z8, Z3
	VFMADD231PD.BCST 32(SI), Z8, Z4
	VFMADD231PD.BCST 40(SI), Z8, Z5
	VFMADD231PD.BCST 48(SI), Z8, Z6
	VFMADD231PD.BCST 56(SI), Z8, Z7
	ADDQ $64, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  kloop

writeback:
	FMA_WRITEBACK(dst+40(FP), ldd+48(FP), mr+56(FP))

done:
	VZEROUPPER
	RET

// func fmaRowsAsm(k int, a *float64, lda int, sign uint64, b *float64, ldb, n int, dst *float64, ldd, mr int)
//
// The pack-free twin of fmaPackedAsm: A is read in place, row i at
// a[i*lda], for the first mr rows (the rows past mr re-read row 0 and are
// never written back). sign is XORed into every B row, so sign = 1<<63
// multiplies by -A exactly as a pack with alpha = -1 would, bit for bit.
TEXT ·fmaRowsAsm(SB), NOSPLIT, $0-80
	FMA_MASK(n+48(FP))
	VPBROADCASTQ sign+24(FP), Z10
	MOVQ a+8(FP), BX
	MOVQ lda+16(FP), AX
	SHLQ $3, AX              // element stride -> byte stride
	MOVQ mr+72(FP), CX
	LEAQ (BX)(AX*1), DX
	CMPQ CX, $1
	CMOVQLE BX, DX
	LEAQ (DX)(AX*1), DI
	CMPQ CX, $2
	CMOVQLE BX, DI
	LEAQ (DI)(AX*1), R8
	CMPQ CX, $3
	CMOVQLE BX, R8
	LEAQ (R8)(AX*1), R9
	CMPQ CX, $4
	CMOVQLE BX, R9
	LEAQ (R9)(AX*1), R10
	CMPQ CX, $5
	CMOVQLE BX, R10
	LEAQ (R10)(AX*1), R11
	CMPQ CX, $6
	CMOVQLE BX, R11
	LEAQ (R11)(AX*1), R12
	CMPQ CX, $7
	CMOVQLE BX, R12
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R13
	SHLQ $3, R13
	MOVQ k+0(FP), CX
	XORQ AX, AX              // byte offset of column kq within a row of A
	FMA_ZERO
	TESTQ CX, CX
	JZ    writeback

rloop:
	VMOVUPD.Z (SI), K1, Z8
	VPXORQ Z10, Z8, Z8
	VFMADD231PD.BCST (BX)(AX*1), Z8, Z0
	VFMADD231PD.BCST (DX)(AX*1), Z8, Z1
	VFMADD231PD.BCST (DI)(AX*1), Z8, Z2
	VFMADD231PD.BCST (R8)(AX*1), Z8, Z3
	VFMADD231PD.BCST (R9)(AX*1), Z8, Z4
	VFMADD231PD.BCST (R10)(AX*1), Z8, Z5
	VFMADD231PD.BCST (R11)(AX*1), Z8, Z6
	VFMADD231PD.BCST (R12)(AX*1), Z8, Z7
	ADDQ $8, AX
	ADDQ R13, SI
	DECQ CX
	JNZ  rloop

writeback:
	FMA_WRITEBACK(dst+56(FP), ldd+64(FP), mr+72(FP))

done:
	VZEROUPPER
	RET

// func fmaColAsm(k int, pa0, pa1, b *float64, ldb int, dst *float64, mr int)
//
// One slab of up to 16 rows of dst += panelA * b at a single right-hand
// column: pa0 and pa1 are the slab's two k-major 8-row packed panels (pa1
// = pa0 when the slab has one panel; that chain is computed and dropped),
// b is k values ldb elements apart, and dst is contiguous. Row i of a
// panel accumulates in lane i of Z0 (first panel) or Z1 (second): each k
// step broadcasts b[kq] and folds in each panel's packed column whole, so
// one FMA does the work of the eight one-lane FMAs fmaPackedAsm spends on
// a single column, with the same operands in the same order. The totals
// are added into the first mr rows of dst (mr in [1, 16]) once at the end.
TEXT ·fmaColAsm(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ pa0+8(FP), SI
	MOVQ pa1+16(FP), DI
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R8
	SHLQ $3, R8              // element stride -> byte stride
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	TESTQ CX, CX
	JZ    writeback

kloop:
	VBROADCASTSD (DX), Z8
	VFMADD231PD (SI), Z8, Z0
	VFMADD231PD (DI), Z8, Z1
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ R8, DX
	DECQ CX
	JNZ  kloop

writeback:
	MOVQ dst+40(FP), DI
	MOVQ mr+48(FP), CX
	CMPQ CX, $8
	JGT  twopanels
	LANE_MASK
	VMOVUPD.Z (DI), K1, Z16
	VADDPD Z16, Z0, Z0
	VMOVUPD Z0, K1, (DI)
	VZEROUPPER
	RET

twopanels:
	SUBQ $8, CX
	LANE_MASK
	VMOVUPD (DI), Z16
	VMOVUPD.Z 64(DI), K1, Z17
	VADDPD Z16, Z0, Z0
	VADDPD Z17, Z1, Z1
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, K1, 64(DI)
	VZEROUPPER
	RET

// func fmaColPairAsm(k1 int, a0, a1, b *float64, ldb, k2 int, c0, c1, y *float64, ldy int, dst *float64, mr int)
//
// One slab of dst = (+0 + panelA * b) + panelC * y at a single right-hand
// column, for packed operands A (k1 columns, panels a0 and a1) and C
// (k2 >= k1 columns, panels c0 and c1), clamped as in fmaColAsm. A's
// chains (Z0, Z1) and C's (Z2, Z3) run interleaved for k1 steps and C's
// alone for the rest. The totals combine as adding each product into a
// zeroed dst would, the chain always the first operand: Z0 + 0, then
// Z2 + (Z0 + 0). dst is written, never read, in its first mr rows.
TEXT ·fmaColPairAsm(SB), NOSPLIT, $0-96
	MOVQ k1+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DI
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R8
	SHLQ $3, R8
	MOVQ k2+40(FP), BX
	SUBQ CX, BX              // C's steps past A's last
	MOVQ c0+48(FP), R9
	MOVQ c1+56(FP), R10
	MOVQ y+64(FP), R11
	MOVQ ldy+72(FP), R12
	SHLQ $3, R12
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	TESTQ CX, CX
	JZ    ctail

pairloop:
	VBROADCASTSD (DX), Z8
	VBROADCASTSD (R11), Z9
	VFMADD231PD (SI), Z8, Z0
	VFMADD231PD (DI), Z8, Z1
	VFMADD231PD (R9), Z9, Z2
	VFMADD231PD (R10), Z9, Z3
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ R8, DX
	ADDQ R12, R11
	DECQ CX
	JNZ  pairloop

ctail:
	TESTQ BX, BX
	JZ    writeback

cloop:
	VBROADCASTSD (R11), Z9
	VFMADD231PD (R9), Z9, Z2
	VFMADD231PD (R10), Z9, Z3
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ R12, R11
	DECQ BX
	JNZ  cloop

writeback:
	VPXORQ Z16, Z16, Z16
	VADDPD Z16, Z0, Z0
	VADDPD Z16, Z1, Z1
	VADDPD Z0, Z2, Z2
	VADDPD Z1, Z3, Z3
	MOVQ dst+80(FP), DI
	MOVQ mr+88(FP), CX
	CMPQ CX, $8
	JGT  twopanels
	LANE_MASK
	VMOVUPD Z2, K1, (DI)
	VZEROUPPER
	RET

twopanels:
	SUBQ $8, CX
	LANE_MASK
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, K1, 64(DI)
	VZEROUPPER
	RET

// SUBSTITUTE is the body of the substitution kernels: the forward and back
// substitution of an n x n LU factorization on one strip of right-hand-side
// columns, MOV moving one row of the strip between memory and a register
// (scalar, 2-wide or 4-wide), BCAST broadcasting one factor entry, FNMA and
// DIV the matching FMA and divide, and R0 (the row) and R2 (the factor)
// registers of that width.
// f holds the packed factors (unit-diagonal L below the diagonal, U on and
// above it, row stride ldf) and b's rows sit ldb elements apart. Each row
// of the strip lives in R0 while it is updated: forward substitution folds
// rows k = 0..i-1 in ascending order, back substitution folds rows
// k = n-1 down to i+1 and then divides by U[i][i]; with k descending, the
// last update a row waits for is the row solved just before it. A zero
// factor entry skips its update, as the portable loops do. Every access
// covers exactly the strip's columns, so a row stored in one step forwards
// straight to the load of the next.
//
// On entry R9 = n, R12 = f, R11 = ldf in bytes, SI = b, R13 = ldb in bytes.
#define SUBSTITUTE(MOV, BCAST, FNMA, DIV, R0, R2) \
	MOVQ R12, R10; \
	CMPQ R9, $1; \
	JLT  done; \
	JEQ  back; \
	MOVQ $1, R8; \
	ADDQ R11, R10; \
	LEAQ (SI)(R13*1), DI; \
fwdrow: \
	MOV  (DI), R0; \
	MOVQ R10, AX; \
	MOVQ SI, DX; \
	MOVQ R8, CX; \
fwdk: \
	MOVQ (AX), BX; \
	ADDQ BX, BX; \
	JZ   fwdskip; \
	BCAST (AX), R2; \
	FNMA (DX), R2, R0; \
fwdskip: \
	ADDQ $8, AX; \
	ADDQ R13, DX; \
	DECQ CX; \
	JNZ  fwdk; \
	MOV  R0, (DI); \
	ADDQ R11, R10; \
	ADDQ R13, DI; \
	INCQ R8; \
	CMPQ R8, R9; \
	JLT  fwdrow; \
back: \
	MOVQ R9, R8; \
	DECQ R8; \
	MOVQ R8, AX; \
	IMULQ R11, AX; \
	LEAQ (R12)(AX*1), R10; \
	MOVQ R8, AX; \
	IMULQ R13, AX; \
	LEAQ (SI)(AX*1), R12; \
	MOVQ R12, DI; \
bkrow: \
	MOV  (DI), R0; \
	MOVQ R9, CX; \
	DECQ CX; \
	SUBQ R8, CX; \
	JZ   bkdiv; \
	LEAQ -8(R10)(R9*8), AX; \
	MOVQ R12, DX; \
bkk: \
	MOVQ (AX), BX; \
	ADDQ BX, BX; \
	JZ   bkskip; \
	BCAST (AX), R2; \
	FNMA (DX), R2, R0; \
bkskip: \
	SUBQ $8, AX; \
	SUBQ R13, DX; \
	DECQ CX; \
	JNZ  bkk; \
bkdiv: \
	BCAST (R10)(R8*8), R2; \
	DIV  R2, R0, R0; \
	MOV  R0, (DI); \
	SUBQ R11, R10; \
	SUBQ R13, DI; \
	DECQ R8; \
	JGE  bkrow

// func substitute1Asm(n int, f *float64, ldf int, b *float64, ldb int)
//
// SUBSTITUTE on one column.
TEXT ·substitute1Asm(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), R9
	MOVQ f+8(FP), R12
	MOVQ ldf+16(FP), R11
	SHLQ $3, R11
	MOVQ b+24(FP), SI
	MOVQ ldb+32(FP), R13
	SHLQ $3, R13
	SUBSTITUTE(VMOVSD, VMOVSD, VFNMADD231SD, VDIVSD, X0, X2)

done:
	VZEROUPPER
	RET

// func substitute2Asm(n int, f *float64, ldf int, b *float64, ldb int)
//
// SUBSTITUTE on two adjacent columns.
TEXT ·substitute2Asm(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), R9
	MOVQ f+8(FP), R12
	MOVQ ldf+16(FP), R11
	SHLQ $3, R11
	MOVQ b+24(FP), SI
	MOVQ ldb+32(FP), R13
	SHLQ $3, R13
	SUBSTITUTE(VMOVUPD, VMOVDDUP, VFNMADD231PD, VDIVPD, X0, X2)

done:
	VZEROUPPER
	RET

// func substitute4Asm(n int, f *float64, ldf int, b *float64, ldb int)
//
// SUBSTITUTE on four adjacent columns.
TEXT ·substitute4Asm(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), R9
	MOVQ f+8(FP), R12
	MOVQ ldf+16(FP), R11
	SHLQ $3, R11
	MOVQ b+24(FP), SI
	MOVQ ldb+32(FP), R13
	SHLQ $3, R13
	SUBSTITUTE(VMOVUPD, VBROADCASTSD, VFNMADD231PD, VDIVPD, Y0, Y2)

done:
	VZEROUPPER
	RET

// func axpyAsm(alpha float64, x, y *float64, n int)
//
// y[0:n] += alpha * x[0:n] with 8-wide FMA; the last n mod 8 elements run
// through one masked step, so every element gets the same fused update.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Z1
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), DX
	MOVQ DX, CX
	SHRQ $3, CX
	JZ   axpytail

axpyloop:
	VMOVUPD (DI), Z0
	VFMADD231PD (SI), Z1, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  axpyloop

axpytail:
	ANDQ $7, DX
	JZ   axpydone
	MOVQ DX, CX
	MOVL $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z (SI), K1, Z2
	VFMADD231PD Z2, Z1, Z0
	VMOVUPD Z0, K1, (DI)

axpydone:
	VZEROUPPER
	RET

// func packColsAsm(k int, src *float64, stride int, dst *float64)
//
// Copies an 8-column strip out of a row-major matrix into a k-major packed
// panel: dst[kq*8 : kq*8+8] = src[kq*stride : kq*stride+8] for kq in
// [0, k). Eight float64 values are one ZMM register, so each row is a
// single unaligned load/store pair — the generic per-row copy spends more
// time in memmove dispatch than moving the 64 bytes.
TEXT ·packColsAsm(SB), NOSPLIT, $0-32
	MOVQ k+0(FP), CX
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ dst+24(FP), DI
	SHLQ $3, R8              // element stride -> byte stride
	TESTQ CX, CX
	JZ   packdone

packloop:
	VMOVUPD (SI), Z0
	VMOVUPD Z0, (DI)
	ADDQ R8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  packloop

packdone:
	VZEROUPPER
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
