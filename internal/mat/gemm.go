package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// gemmBlock is the cache tile edge used by the small-size blocked kernel.
// 64 float64 values per row segment keeps three tiles (~96 KiB) within
// typical L2.
const gemmBlock = 64

// parallelThreshold is the minimum number of multiply-add operations
// (m*n*k) before GEMM fans work out across goroutines. Below it the
// goroutine overhead dominates any speedup.
const parallelThreshold = 1 << 18

// packThreshold is the minimum number of multiply-add operations before
// the portable GEMM packs the operands into contiguous tiles for the 4x4
// micro-kernel, which additionally requires every operand dimension to
// reach packMinDim: on skinny products the packing traffic costs more than
// the scalar kernel saves. The AVX-512 FMA kernels have no threshold (see
// panelOK). The dispatch depends only on operand shape and the
// process-constant panel width, so a given multiply always takes the same
// path and results stay deterministic.
const (
	packThreshold = 1 << 15
	packMinDim    = 32
)

// micro-kernel register blocks. panelW is the packing width: A panels are
// panelW rows tall, B panels panelW columns wide. It is microMR (the
// scalar 4x4 kernel) unless AVX-512 is available, in which case init
// raises it to avxPanelW and every tile, full or edge, runs an FMA
// assembly kernel. panelW is fixed before main and never changes
// afterwards, so every pack and every kernel in a process agree on the
// layout.
const (
	microMR   = 4
	microNR   = 4
	avxPanelW = 8
)

var panelW = microMR

// parallelOn controls whether large GEMM calls split row bands across
// goroutines. It is read by worker goroutines while benchmarks and the
// harness toggle it, hence atomic. It defaults to true; benchmarks that pin
// all parallelism in the communicator ranks disable it so that per-rank
// compute costs stay attributable to the rank that performed them.
var parallelOn atomic.Bool

// fmaKernels selects the AVX-512 FMA kernels for products with k >= 8 and
// for every LU substitution. init sets it together with the 8-wide panel
// width, so the whole dense substrate switches vector ISA at once.
var fmaKernels bool

func init() {
	parallelOn.Store(true)
	if avx512Available() {
		panelW = avxPanelW
		fmaKernels = true
	}
}

// SetParallel enables or disables the parallel row-band split for large
// GEMM calls. Safe to call concurrently with running multiplications: the
// split changes only how rows are scheduled, never the per-element
// reduction order, so results are identical either way.
func SetParallel(on bool) { parallelOn.Store(on) }

// ParallelEnabled reports whether large GEMM calls currently fan out across
// goroutines.
func ParallelEnabled() bool { return parallelOn.Load() }

// FMAKernels reports whether the AVX-512 FMA kernels are active. They carry
// every product with k >= 8 and every LU solve, and give each column of a
// panel exactly the bits it would get if solved alone. The portable
// kernels make no such cross-width promise.
func FMAKernels() bool { return fmaKernels }

// panelOK reports whether an m x k by k x n product takes the packed
// register-blocked path. With the FMA kernels that is every product with
// k >= 8, at every width: fewer than eight columns run the same kernel on
// B in place. The portable 4x4 kernel needs enough work and every
// dimension at packMinDim; single columns stay on gemv.
//
//perf:inline
func panelOK(m, k, n int) bool {
	if fmaKernels {
		return k >= avxPanelW
	}
	return n >= 2 && m*k*n >= packThreshold && min(min(m, k), n) >= packMinDim
}

// PanelPacked reports whether an m x k by k x n product runs on the packed
// register-blocked kernel (the AVX-512 FMA kernels when available, 4x4
// otherwise). Callers that maintain prepacked operands use it to decide
// whether a shape is worth packing at all: MulAddPacked falls back to
// plain GEMM exactly when this returns false, so gating a prepack on
// PanelPacked keeps the packed and unpacked paths bit-identical.
//
//perf:inline
func PanelPacked(m, k, n int) bool { return panelOK(m, k, n) }

// packBuf holds the packed-operand scratch of one GEMM call (or the gather
// buffer of one strided gemv). Buffers are recycled through a typed free
// list rather than sync.Pool so that checkouts in steady state perform no
// interface boxing and no allocation.
type packBuf struct {
	a, b []float64
}

var packPool struct {
	mu   sync.Mutex
	free []*packBuf
}

// The pool-growth allocation below is amortized: it happens only until the
// free list warms up, never steady-state.
//
//perf:coldpath
func getPackBuf() *packBuf {
	packPool.mu.Lock()
	n := len(packPool.free)
	if n == 0 {
		packPool.mu.Unlock()
		return new(packBuf)
	}
	pb := packPool.free[n-1]
	packPool.free = packPool.free[:n-1]
	packPool.mu.Unlock()
	return pb
}

func putPackBuf(pb *packBuf) {
	packPool.mu.Lock()
	packPool.free = append(packPool.free, pb)
	packPool.mu.Unlock()
}

// ensureFloats grows buf to length n, reusing its backing array when it is
// already large enough.
// Growth is the sanctioned amortized allocation of the pack-buffer pool;
// steady-state calls return buf[:n] without touching the allocator.
//
//perf:coldpath
func ensureFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// GEMM computes dst = alpha*a*b + beta*dst, the general matrix-matrix
// product. dst must be a.Rows x b.Cols and must not alias a or b; a.Cols
// must equal b.Rows.
//
//perf:coldpath
func GEMM(alpha float64, a, b *Matrix, beta float64, dst *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: GEMM shape mismatch")
	}
	if beta == 0 {
		dst.Zero()
	} else if beta != 1 { //lint:ignore floateq beta==1 is the exact no-scale sentinel, per BLAS convention.
		Scale(dst, beta)
	}
	if alpha == 0 || a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return
	}
	if fmaKernels && a.Cols >= avxPanelW && b.Cols < avxPanelW {
		gemmNarrow(alpha, a, b, dst)
		return
	}
	if b.Cols == 1 {
		gemv(alpha, a, b, dst)
		return
	}
	ops := a.Rows * a.Cols * b.Cols
	if ops >= parallelThreshold && parallelOn.Load() {
		gemmParallel(alpha, a, b, dst)
		return
	}
	if panelOK(a.Rows, a.Cols, b.Cols) {
		pb := getPackBuf()
		pb.b = ensureFloats(pb.b, packedBLen(b))
		packB(b, pb.b)
		pb.a = ensureFloats(pb.a, packedALen(a, 0, a.Rows))
		packA(alpha, a, 0, a.Rows, pb.a)
		gemmPacked(a.Cols, pb.a, pb.b, dst, 0, a.Rows)
		putPackBuf(pb)
		return
	}
	gemmSerial(alpha, a, b, dst, 0, a.Rows)
}

// gemmNarrow accumulates alpha*a*b into dst for b narrower than one panel
// on the FMA kernels, reading a and b in place: packing a would cost more
// than the product. alpha = 1 and -1 fold into the kernel exactly; any
// other alpha packs alpha*a first, as the wide path does, so every path
// rounds alpha*a[i][k] the same way before its FMA.
func gemmNarrow(alpha float64, a, b, dst *Matrix) {
	if alpha != 1 && alpha != -1 { //lint:ignore floateq +-1 are the exact sentinels a sign flip reproduces bit for bit
		pb := getPackBuf()
		pb.a = ensureFloats(pb.a, packedALen(a, 0, a.Rows))
		packA(alpha, a, 0, a.Rows, pb.a)
		mulNarrowPacked(a.Rows, a.Cols, pb.a, b, dst)
		putPackBuf(pb)
		return
	}
	var sign uint64
	if alpha < 0 {
		sign = 1 << 63
	}
	m, k := a.Rows, a.Cols
	for i := 0; i < m; i += avxPanelW {
		fmaRowsAsm(k, &a.Data[i*a.Stride], a.Stride, sign, &b.Data[0], b.Stride, b.Cols,
			&dst.Data[i*dst.Stride], dst.Stride, min(avxPanelW, m-i))
	}
}

// mulNarrowPacked adds the product of the 8-row packed panels pA (rows x
// k) and b, narrower than one panel and read in place, into dst.
func mulNarrowPacked(rows, k int, pA []float64, b, dst *Matrix) {
	panel := avxPanelW * k
	for i, p := 0, 0; i < rows; i, p = i+avxPanelW, p+panel {
		fmaPackedAsm(k, &pA[p], &b.Data[0], b.Stride, b.Cols,
			&dst.Data[i*dst.Stride], dst.Stride, min(avxPanelW, rows-i))
	}
}

// colSlab is the row count of one column-kernel call: two 8-row panels,
// whose chains run side by side.
const colSlab = 2 * avxPanelW

// mulColPacked adds the product of the 8-row packed panels pA (rows x k)
// and the single column b, read in place, into the contiguous single
// column dst, one 16-row slab per kernel call.
func mulColPacked(rows, k int, pA []float64, b, dst *Matrix) {
	panel := avxPanelW * k
	for i, p := 0, 0; i < rows; i, p = i+colSlab, p+2*panel {
		n := min(colSlab, rows-i)
		fmaColAsm(k, &pA[p], &pA[secondPanel(p, panel, n)], &b.Data[0], b.Stride, &dst.Data[i], n)
	}
}

// secondPanel returns the offset of the second packed panel of a slab of
// n rows whose first panel starts at p, or p itself when the rows fit one
// panel: the column kernels then compute that chain twice and store one.
//
//perf:inline
func secondPanel(p, panel, n int) int {
	if n > avxPanelW {
		return p + panel
	}
	return p
}

// gemv accumulates alpha*a*x into the single-column dst: the portable
// right-hand-side paths are dominated by this shape, where the tiled
// kernel's slicing overhead would dwarf the two flops per element.
func gemv(alpha float64, a, b, dst *Matrix) {
	k := a.Cols
	x := b.Data
	var pb *packBuf
	if b.Stride != 1 {
		// Gather a strided column once so the inner loop stays unit-stride.
		// The buffer comes from the pack pool, so steady state allocates
		// nothing.
		pb = getPackBuf()
		pb.a = ensureFloats(pb.a, k)
		for i := 0; i < k; i++ {
			pb.a[i] = b.Data[i*b.Stride]
		}
		x = pb.a
	} else {
		x = x[:k]
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Stride : i*a.Stride+k]
		sum := 0.0
		for j, av := range arow {
			sum += av * x[j]
		}
		dst.Data[i*dst.Stride] += alpha * sum
	}
	if pb != nil {
		putPackBuf(pb)
	}
}

// gemmSerial accumulates alpha*a*b into dst for rows [r0, r1) of a/dst
// using an i-k-j loop order with square tiling for cache locality. It is
// the small-size kernel, where packing would cost more than it saves.
func gemmSerial(alpha float64, a, b, dst *Matrix, r0, r1 int) {
	n, k := b.Cols, a.Cols
	for ii := r0; ii < r1; ii += gemmBlock {
		iMax := min(ii+gemmBlock, r1)
		for kk := 0; kk < k; kk += gemmBlock {
			kMax := min(kk+gemmBlock, k)
			for jj := 0; jj < n; jj += gemmBlock {
				jMax := min(jj+gemmBlock, n)
				for i := ii; i < iMax; i++ {
					arow := a.Data[i*a.Stride:]
					drow := dst.Data[i*dst.Stride+jj : i*dst.Stride+jMax]
					for kq := kk; kq < kMax; kq++ {
						av := alpha * arow[kq]
						if av == 0 {
							continue
						}
						brow := b.Data[kq*b.Stride+jj : kq*b.Stride+jMax]
						for j, bv := range brow {
							drow[j] += av * bv
						}
					}
				}
			}
		}
	}
}

// packedALen returns the packed size of rows [r0, r1) of a: full panelW
// row panels (zero padded), k-major within each panel.
//
//perf:inline
func packedALen(a *Matrix, r0, r1 int) int {
	w := panelW
	panels := (r1 - r0 + w - 1) / w
	return panels * w * a.Cols
}

// packedBLen returns the packed size of b: full panelW column panels
// (zero padded), k-major within each panel.
//
//perf:inline
func packedBLen(b *Matrix) int {
	w := panelW
	panels := (b.Cols + w - 1) / w
	return panels * w * b.Rows
}

// packA copies rows [r0, r1) of a into pA as panelW-row panels, k-major
// within each panel, with alpha folded into the values (matching the
// alpha*a[i][k] factor of the unpacked kernel, so reduction order and
// rounding are unchanged). Panel rows past r1 are zero. Each source row is
// read sequentially and scattered into its k-major slot, so the expensive
// direction of the transpose stays on the small packed buffer.
func packA(alpha float64, a *Matrix, r0, r1 int, pA []float64) {
	w := panelW
	kk := a.Cols
	idx := 0
	for ip := r0; ip < r1; ip += w {
		rows := min(w, r1-ip)
		for i := 0; i < rows; i++ {
			row := a.Data[(ip+i)*a.Stride : (ip+i)*a.Stride+kk]
			//lint:ignore perfbce the k-major scatter index idx+k*w+i is beyond the range prover; the panel is sized packedALen up front
			//perf:hotloop
			for k, v := range row {
				pA[idx+k*w+i] = alpha * v
			}
		}
		for i := rows; i < w; i++ {
			for k := 0; k < kk; k++ {
				pA[idx+k*w+i] = 0
			}
		}
		idx += w * kk
	}
}

// packB copies b into pB as panelW-column panels, k-major within each
// panel. Panel columns past b.Cols are zero. Full panels move through
// fixed-size array stores: a generic copy of 8 floats spends more time in
// call dispatch than in the move itself, and packing is the dominant
// per-call overhead of MulAddPacked on the solve phase's skinny panels.
func packB(b *Matrix, pB []float64) {
	w := panelW
	kk, n := b.Rows, b.Cols
	idx := 0
	for jp := 0; jp < n; jp += w {
		cols := min(w, n-jp)
		switch {
		case cols == 8 && w == 8:
			if kk > 0 {
				packColsAsm(kk, &b.Data[jp], b.Stride, &pB[idx])
			}
		case cols == 4 && w == 4:
			for k := 0; k < kk; k++ {
				*(*[4]float64)(pB[idx+k*4:]) = *(*[4]float64)(b.Data[k*b.Stride+jp:])
			}
		default:
			for k := 0; k < kk; k++ {
				brow := b.Data[k*b.Stride+jp : k*b.Stride+jp+cols]
				off := idx + k*w
				copy(pB[off:off+cols], brow)
				for j := cols; j < w; j++ {
					pB[off+j] = 0
				}
			}
		}
		idx += w * kk
	}
}

// gemmPacked runs the register-blocked kernels over the packed panels of a
// (rows [r0, r1), packed in pA starting at r0's panel) and b (packed in
// pB), accumulating into dst. When panelW is avxPanelW, full tiles run
// kernel8x8Asm and edge tiles fmaPackedAsm, with the same arithmetic; the
// portable configuration runs the scalar 4x4 micro-kernel. Each tile folds its k-ascending partial sums in
// registers and adds the total to dst once, so the reduction order depends
// only on the operand shapes — never on the parallel split or the tile an
// element lands in — and results are bit-for-bit reproducible run to run.
func gemmPacked(kk int, pA, pB []float64, dst *Matrix, r0, r1 int) {
	n := dst.Cols
	w := panelW
	panel := w * kk
	for ip, pi := r0, 0; ip < r1; ip, pi = ip+w, pi+1 {
		mr := min(w, r1-ip)
		pa := pA[pi*panel : (pi+1)*panel]
		for jp, pj := 0, 0; jp < n; jp, pj = jp+w, pj+1 {
			nr := min(w, n-jp)
			pb := pB[pj*panel : (pj+1)*panel]
			if w == avxPanelW {
				if mr == avxPanelW && nr == avxPanelW {
					kernel8x8Asm(kk, &pa[0], &pb[0], &dst.Data[ip*dst.Stride+jp], dst.Stride)
					continue
				}
				fmaPackedAsm(kk, &pa[0], &pb[0], w, nr, &dst.Data[ip*dst.Stride+jp], dst.Stride, mr)
				continue
			}
			microKernel(kk, pa, pb, w, dst, ip, jp, mr, nr)
		}
	}
}

// microKernel computes one mr x nr tile (mr <= microMR, nr <= microNR) of
// dst += pa*pb, where pa and pb are k-major packed panels of width w. The
// sixteen accumulators live in registers across the whole k loop.
func microKernel(kk int, pa, pb []float64, w int, dst *Matrix, i0, j0, mr, nr int) {
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
		c20, c21, c22, c23 float64
		c30, c31, c32, c33 float64
	)
	//lint:ignore perfbce the two slice-to-array-pointer checks stand in for eight per-element checks; the packed panel layout guarantees k*w+4 elements
	//perf:hotloop
	for k := 0; k < kk; k++ {
		ak := (*[microMR]float64)(pa[k*w:])
		bk := (*[microNR]float64)(pb[k*w:])
		a0, a1, a2, a3 := ak[0], ak[1], ak[2], ak[3]
		b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc := [microMR][microNR]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
		{c20, c21, c22, c23},
		{c30, c31, c32, c33},
	}
	for i := 0; i < mr; i++ {
		drow := dst.Data[(i0+i)*dst.Stride+j0 : (i0+i)*dst.Stride+j0+nr]
		ai := &acc[i]
		for j := 0; j < nr; j++ {
			drow[j] += ai[j]
		}
	}
}

// gemmParallel splits the rows of dst into bands, one goroutine per band.
// The packed B panels are shared read-only across workers; each worker
// packs its own A band. Per-row reduction order matches the serial packed
// path, so enabling parallelism never changes results.
//
//perf:coldpath
func gemmParallel(alpha float64, a, b, dst *Matrix) {
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	// Band boundaries snap to the packing width so no two workers write
	// the same dst row and every band starts on a panel boundary.
	band := (a.Rows + workers - 1) / workers
	band = (band + panelW - 1) / panelW * panelW
	if band >= a.Rows {
		// One band: skip the goroutine and its bookkeeping allocations —
		// a single-P runtime must keep the 0 allocs/op solve contract.
		if panelOK(a.Rows, a.Cols, b.Cols) {
			pb := getPackBuf()
			pb.b = ensureFloats(pb.b, packedBLen(b))
			packB(b, pb.b)
			pb.a = ensureFloats(pb.a, packedALen(a, 0, a.Rows))
			packA(alpha, a, 0, a.Rows, pb.a)
			gemmPacked(a.Cols, pb.a, pb.b, dst, 0, a.Rows)
			putPackBuf(pb)
		} else {
			gemmSerial(alpha, a, b, dst, 0, a.Rows)
		}
		return
	}
	shared := getPackBuf()
	shared.b = ensureFloats(shared.b, packedBLen(b))
	packB(b, shared.b)
	var wg sync.WaitGroup
	for r0 := 0; r0 < a.Rows; r0 += band {
		r1 := min(r0+band, a.Rows)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			pb := getPackBuf()
			pb.a = ensureFloats(pb.a, packedALen(a, r0, r1))
			packA(alpha, a, r0, r1, pb.a)
			gemmPacked(a.Cols, pb.a, shared.b, dst, r0, r1)
			putPackBuf(pb)
		}(r0, r1)
	}
	wg.Wait()
	putPackBuf(shared)
}

// PackedA is a reusable packed image of alpha*A: panelW-row panels,
// k-major, alpha folded in, laid out exactly as one GEMM call would pack A
// on the fly. Solvers build one at factor time for each transfer operand
// that the solve phase multiplies repeatedly, so the per-solve cost drops
// to packing the right-hand-side panel alone. The zero value is not valid;
// callers gate on Valid.
type PackedA struct {
	rows, k, w int
	alpha      float64
	data       []float64
	// src is a heap copy of the source header, allocated once at pack time
	// so the unpacked GEMM fallback never forces the PackedA value itself
	// to escape — MulAddPacked stays allocation-free per call. A
	// standalone pack has none: no width falls back to the source.
	src *Matrix
}

// Valid reports whether p holds a pack (the zero PackedA does not).
func (p PackedA) Valid() bool { return p.w != 0 }

// Standalone reports whether p serves MulAddPacked at every right-hand
// width without its source matrix (see PackStandalone), so the caller may
// discard or recycle the source once the pack is built.
func (p PackedA) Standalone() bool { return p.Valid() && p.src == nil }

// PackStandalone reports whether a pack of an m x k operand is standalone:
// MulAddPacked runs it on the packed kernels at every right-hand width and
// never falls back to GEMM on the source. That is every k >= 8 on the FMA
// kernels, and no shape on the portable ones, which multiply a single
// column unpacked.
//
//perf:inline
func PackStandalone(m, k int) bool { return fmaKernels && k >= avxPanelW }

// Rows returns the row count of the packed operand.
func (p PackedA) Rows() int { return p.rows }

// K returns the inner (column) dimension of the packed operand.
func (p PackedA) K() int { return p.k }

// PackALen returns the buffer length PackAInto requires for an m x k
// operand under the current panel width.
//
//perf:inline
func PackALen(m, k int) int {
	w := panelW
	return (m + w - 1) / w * w * k
}

// PackBLen returns the scratch length MulAddPacked needs to pack a k x n
// right-hand operand under the current panel width.
//
//perf:inline
func PackBLen(k, n int) int {
	w := panelW
	return (n + w - 1) / w * w * k
}

// PackAInto packs alpha*a into buf (length at least PackALen(a.Rows,
// a.Cols)) and returns the PackedA describing it. Unless the pack is
// standalone (PackStandalone), it records a copy of a's header:
// MulAddPacked falls back to plain GEMM through it on shapes below the
// packed threshold, so a's backing data must then outlive the pack even
// though the header itself may be recycled. A standalone pack copies no
// header and needs nothing of a once built.
//
//perf:hotpath
func PackAInto(buf []float64, alpha float64, a *Matrix) PackedA {
	need := PackALen(a.Rows, a.Cols)
	if len(buf) < need {
		panic("mat: PackAInto buffer too small")
	}
	packA(alpha, a, 0, a.Rows, buf[:need])
	p := PackedA{rows: a.Rows, k: a.Cols, w: panelW, alpha: alpha, data: buf[:need]}
	if !PackStandalone(a.Rows, a.Cols) {
		//lint:ignore perfescape the header copy is the documented one-time pack cost; MulAddPacked reads it without re-escaping
		src := *a
		p.src = &src
	}
	return p
}

// NewPackedA allocates a fresh buffer and packs alpha*a into it. Factor
// phases use it; solve phases must pre-size workspace and use PackAInto.
func NewPackedA(alpha float64, a *Matrix) PackedA {
	return PackAInto(make([]float64, PackALen(a.Rows, a.Cols)), alpha, a)
}

// checkPacked panics unless dst += pa*b is a well-formed packed product.
//
//perf:inline
func checkPacked(dst *Matrix, pa PackedA, b *Matrix) {
	if !pa.Valid() {
		panic("mat: packed product on zero PackedA")
	}
	if pa.k != b.Rows || dst.Rows != pa.rows || dst.Cols != b.Cols {
		panic("mat: packed product shape mismatch")
	}
	if pa.w != panelW {
		panic("mat: packed product panel width mismatch")
	}
}

// MulAddPacked computes dst += alpha*A*b where alpha*A was prepacked into
// pa. b is packed into bScratch (length at least PackBLen(b.Rows, b.Cols);
// pass nil to draw from the internal pool) and the product runs on the
// register-blocked kernels, splitting row bands across goroutines for
// large shapes when parallelism is enabled; a b narrower than one panel is
// read in place instead, with no packing and no scratch, and a single
// column into a contiguous dst runs the column kernel. Shapes PanelPacked
// rejects fall back to plain GEMM on the recorded source operand, so the
// result is bit-identical to GEMM(alpha, a, b, 1, dst) for every shape.
// A standalone pa never falls back. dst must be pa.Rows() x b.Cols and
// must not alias b.
//
//perf:hotpath
func MulAddPacked(dst *Matrix, pa PackedA, b *Matrix, bScratch []float64) {
	checkPacked(dst, pa, b)
	if !panelOK(pa.rows, pa.k, b.Cols) {
		GEMM(pa.alpha, pa.src, b, 1, dst)
		return
	}
	if b.Cols < avxPanelW {
		// Only the FMA kernels admit narrow panels (the portable rule needs
		// n >= packMinDim).
		switch {
		case b.Cols == 1 && dst.Stride == 1:
			mulColPacked(pa.rows, pa.k, pa.data, b, dst)
		case b.Cols > 0:
			mulNarrowPacked(pa.rows, pa.k, pa.data, b, dst)
		}
		return
	}
	need := PackBLen(b.Rows, b.Cols)
	buf := bScratch
	var pbuf *packBuf
	if len(buf) < need {
		pbuf = getPackBuf()
		//lint:ignore perfescape inlined pool growth: allocates only until the pack pool warms up, then reuses
		pbuf.b = ensureFloats(pbuf.b, need)
		buf = pbuf.b
	} else {
		buf = buf[:need]
	}
	packB(b, buf)
	if pa.rows*pa.k*b.Cols >= parallelThreshold && parallelOn.Load() {
		mulAddPackedParallel(pa, buf, dst)
	} else {
		gemmPacked(pa.k, pa.data, buf, dst, 0, pa.rows)
	}
	if pbuf != nil {
		putPackBuf(pbuf)
	}
}

// MulPackedPair sets dst = A*b + C*c for two prepacked operands with the
// same row count, bit for bit what dst.Zero() followed by
// MulAddPacked(dst, pa, b, .) and MulAddPacked(dst, pc, c, .) gives,
// including the +0 the zeroed dst contributes. At a single right-hand
// column into a contiguous dst, with both operands on the FMA kernels and
// pa.K() <= pc.K(), each 16-row slab of both products runs in one
// column-kernel call: no zeroing pass, and all four chains in flight. Any
// other shape runs that three-call sequence. bScratch is as for
// MulAddPacked; dst must not alias b or c.
//
//perf:hotpath
func MulPackedPair(dst *Matrix, pa PackedA, b *Matrix, pc PackedA, c *Matrix, bScratch []float64) {
	if b.Cols != 1 || dst.Stride != 1 || pa.k > pc.k || !panelOK(pa.rows, pa.k, 1) || !panelOK(pc.rows, pc.k, 1) {
		dst.Zero()
		MulAddPacked(dst, pa, b, bScratch)
		MulAddPacked(dst, pc, c, bScratch)
		return
	}
	checkPacked(dst, pa, b)
	checkPacked(dst, pc, c)
	sa, sc := avxPanelW*pa.k, avxPanelW*pc.k
	for i, p, q := 0, 0, 0; i < pa.rows; i, p, q = i+colSlab, p+2*sa, q+2*sc {
		n := min(colSlab, pa.rows-i)
		fmaColPairAsm(pa.k, &pa.data[p], &pa.data[secondPanel(p, sa, n)], &b.Data[0], b.Stride,
			pc.k, &pc.data[q], &pc.data[secondPanel(q, sc, n)], &c.Data[0], c.Stride, &dst.Data[i], n)
	}
}

// mulAddPackedParallel fans the packed product out across row bands. Both
// operands are already packed, so workers slice the shared panels
// read-only; bands snap to the panel width, keeping per-row reduction
// order identical to the serial path.
//
//perf:coldpath
func mulAddPackedParallel(pa PackedA, pB []float64, dst *Matrix) {
	w := panelW
	workers := runtime.GOMAXPROCS(0)
	if workers > pa.rows {
		workers = pa.rows
	}
	band := (pa.rows + workers - 1) / workers
	band = (band + w - 1) / w * w
	if band >= pa.rows {
		// One band: same arithmetic, no goroutine bookkeeping.
		gemmPacked(pa.k, pa.data, pB, dst, 0, pa.rows)
		return
	}
	var wg sync.WaitGroup
	for r0 := 0; r0 < pa.rows; r0 += band {
		r1 := min(r0+band, pa.rows)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			gemmPacked(pa.k, pa.data[r0/w*w*pa.k:], pB, dst, r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// Mul computes dst = a*b. dst must not alias a or b.
func Mul(dst, a, b *Matrix) { GEMM(1, a, b, 0, dst) }

// MulAdd computes dst += a*b. dst must not alias a or b.
func MulAdd(dst, a, b *Matrix) { GEMM(1, a, b, 1, dst) }

// MulSub computes dst -= a*b. dst must not alias a or b.
func MulSub(dst, a, b *Matrix) { GEMM(-1, a, b, 1, dst) }

// MulTrans computes dst = op(a)*op(b) where op(x) is x or x^T according to
// the transA/transB flags. dst must not alias a or b. It is implemented by
// explicit transposition into scratch, which is acceptable at the block
// sizes this package targets (M <= a few hundred).
func MulTrans(dst, a, b *Matrix, transA, transB bool) {
	at, bt := a, b
	if transA {
		at = New(a.Cols, a.Rows)
		Transpose(at, a)
	}
	if transB {
		bt = New(b.Cols, b.Rows)
		Transpose(bt, b)
	}
	Mul(dst, at, bt)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
