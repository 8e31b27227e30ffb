package core

import (
	"errors"
	"fmt"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// ErrSingularSuper is returned when a super-diagonal block U_i is singular,
// which the transfer-matrix recursive doubling formulation cannot handle.
var ErrSingularSuper = errors.New("core: singular super-diagonal block (recursive doubling requires nonsingular U_i)")

// ErrShape is returned when a right-hand side has the wrong shape.
var ErrShape = errors.New("core: right-hand side shape mismatch")

// PartRange returns the contiguous block range [lo, hi) owned by rank r of
// p when distributing n block rows. Ranges differ in size by at most one;
// rank p-1 always ends at n.
func PartRange(n, p, r int) (lo, hi int) {
	return r * n / p, (r + 1) * n / p
}

// element is the scan element E_i (1 <= i <= N-1) of the transfer-matrix
// formulation. Element i propagates the state y_i = [x_i ; x_{i-1}]:
//
//	y_i = T*y_{i-1} + F,  T = | -U^{-1}D   -U^{-1}L |  F = | U^{-1}b |
//	                          |     I          0    |      |    0    |
//
// built from block row j = i-1. Only T's working top half is stored: the
// [I 0] bottom is structure that applyT and composeT apply as a copy. luU
// is retained so the right-hand-side part F can be (re)built per solve.
type element struct {
	idx int         // element index i (the state it produces)
	top *mat.Matrix // [TL TR] = -U^{-1} [D_j L_j], M x 2M
	luU *mat.LU     // factorization of U_{i-1}, for building F

	// tPack is the packed image of top, built by ARD's factor phase so its
	// local scan and every solve-phase applyT run the packed kernel without
	// repacking. RD rebuilds its elements per solve and leaves it zero;
	// applyT and composeT then multiply through top directly.
	tPack mat.PackedA
}

// buildElement constructs element i into top (M x 2M, overwritten), with
// the U factorization checked out of ws: ARD's per-rank factor stores,
// RD's per-solve arena, or EstimateGrowth's scratch. It costs one M x M LU
// factorization plus one 2M-column substitution, run on a buffer holding
// -D and -L: negation commutes with every rounding, so the result equals
// -U^{-1}D and -U^{-1}L solved apart and negated afterwards (up to the sign
// of exact zeros), and the substitution's per-column arithmetic does not
// depend on the panel width. O(M^3).
func buildElement(ws *mat.Workspace, top *mat.Matrix, a *blocktri.Matrix, i int) (element, error) {
	j := i - 1
	m := a.M
	luU, err := ws.LU(a.Upper[j])
	if err != nil {
		return element{}, fmt.Errorf("block row %d: %w", j, ErrSingularSuper)
	}
	mat.Neg(top.View(0, 0, m, m), a.Diag[j])
	if a.Lower[j] != nil {
		mat.Neg(top.View(0, m, m, m), a.Lower[j])
		luU.SolveInPlace(top)
	} else {
		// TR stays zero (x_{-1} = 0), so only -D is solved for.
		top.View(0, m, m, m).Zero()
		luU.SolveInPlace(top.View(0, 0, m, m))
	}
	return element{idx: i, top: top, luU: luU}, nil
}

// buildFInto constructs the right-hand-side part F = [U^{-1} b_{i-1} ; 0]
// (2M x R) for the element with the result checked out of a workspace: the
// hot per-solve path allocates nothing once the arena has warmed up.
//
//perf:hotpath
func (e element) buildFInto(ws *mat.Workspace, m int, bBlock *mat.Matrix) *mat.Matrix {
	// Only the bottom half must be zeroed: SolveTo overwrites the top half
	// entirely, so a cleared checkout would scrub twice the necessary rows
	// on every element of every solve.
	f := ws.GetNoClear(2*m, bBlock.Cols)
	ws.View(f, m, 0, m, bBlock.Cols).Zero()
	e.luU.SolveTo(ws.View(f, 0, 0, m, bBlock.Cols), bBlock)
	return f
}

// composeT computes dst = T*s for an element's transfer matrix
// T = [[TL TR],[I 0]], given its top half, and a 2M-row s (nil stands for
// the identity and writes T itself), through the block structure:
//
//	dst_top = [TL TR]*s,  dst_bot = s_top + 0
//
// That is half the flops of the dense 2M x 2M product, and T is never
// materialized or repacked: a valid tp (top's factor-time pack) runs the
// top on the packed kernel, scratching the panel pack in bs. The bits are
// the dense product's: its top rows are the same k-ascending sums, and its
// identity rows reproduce s_top except that a -0 comes out +0, which the
// added +0 reproduces. ARD's local scan, RD's per-solve local reduction
// and EstimateGrowth's power iteration all compose through here. dst must
// not alias s.
func composeT(ws *mat.Workspace, dst, top *mat.Matrix, tp mat.PackedA, s *mat.Matrix, bs []float64) {
	m, c := top.Rows, dst.Cols
	dTop := ws.View(dst, 0, 0, m, c)
	if s == nil {
		dTop.CopyFrom(top)
		ws.View(dst, m, 0, m, m).SetIdentity()
		ws.View(dst, m, m, m, m).Zero()
		return
	}
	for k := 0; k < m; k++ {
		d := dst.Data[(m+k)*dst.Stride : (m+k)*dst.Stride+c]
		for j, v := range s.Data[k*s.Stride : k*s.Stride+c] {
			d[j] = v + 0
		}
	}
	if tp.Valid() {
		dTop.Zero()
		mat.MulAddPacked(dTop, tp, s, bs)
		return
	}
	mat.Mul(dTop, top, s)
}

// applyT computes dst = T*y + f (2M x R) exploiting the transfer matrix's
// block structure T = [[TL TR],[I 0]] and F's zero bottom half:
//
//	dst_top = [TL TR]*y + f_top,  dst_bot = y_top
//
// which costs half the flops of the dense 2M x 2M product (the identity and
// zero blocks contribute a copy, not arithmetic). dst must not alias y or
// f. When the caller holds a prepacked top half (tp) and the shape runs on
// the packed kernel, the product folds the whole M x R panel through one
// MulAddPacked; the fallback multiplies through top directly. The packed
// branch seeds dst_top with f and adds the k-ascending product total once,
// the exact mirror of the fallback's product-then-add — IEEE addition is
// commutative, so both orders round identically and the two branches are
// bit-equal. Both RD and ARD route every transfer application (the local H
// fold and the recovery sweep) through this function so the two solvers
// keep producing bit-identical solutions regardless of which GEMM kernel a
// given shape dispatches to.
//
//perf:hotpath
func applyT(ws *mat.Workspace, top *mat.Matrix, tp mat.PackedA, y, f, dst *mat.Matrix, m int, bs []float64) {
	rhs := y.Cols
	dTop := ws.View(dst, 0, 0, m, rhs)
	if tp.Valid() && mat.PanelPacked(m, 2*m, rhs) {
		dTop.CopyFrom(ws.View(f, 0, 0, m, rhs))
		mat.MulAddPacked(dTop, tp, y, bs)
	} else {
		mat.Mul(dTop, top, y)
		mat.Add(dTop, dTop, ws.View(f, 0, 0, m, rhs))
	}
	ws.View(dst, m, 0, m, rhs).CopyFrom(ws.View(y, 0, 0, m, rhs))
}

// applyPrefixState computes y_{s-1} = S[:, 0:M]*x0 + H, the state entering
// a rank's chunk, given the cross-rank exclusive prefix (S, H) and the
// broadcast first unknown x0 (M x R). A nil S means the identity prefix:
// y = [x0 ; 0]. A valid sp is the prepacked left half S[:, 0:M]; on packed
// shapes the product seeds with H (or zero) and accumulates once, matching
// the fallback's bits by commutativity of the final add. The result is
// checked out of ws.
//
//perf:hotpath
func applyPrefixState(ws *mat.Workspace, m int, s *mat.Matrix, sp mat.PackedA, h, x0 *mat.Matrix, bs []float64) *mat.Matrix {
	if s == nil {
		y := ws.Get(2*m, x0.Cols)
		ws.View(y, 0, 0, m, x0.Cols).CopyFrom(x0)
		return y
	}
	y := ws.GetNoClear(2*m, x0.Cols)
	if sp.Valid() && mat.PanelPacked(2*m, m, x0.Cols) {
		if h != nil {
			y.CopyFrom(h)
		} else {
			y.Zero()
		}
		mat.MulAddPacked(y, sp, x0, bs)
		return y
	}
	mat.Mul(y, ws.View(s, 0, 0, 2*m, m), x0)
	if h != nil {
		mat.Add(y, y, h)
	}
	return y
}

// recoverChunk is the recovery sweep RD and ARD share, so their solutions
// agree bit for bit by construction. From the rank's exclusive prefix
// (S, H) — sp is S's packed left half, if any — and the broadcast x0 it
// forms the state entering the rank's chunk, y = S[:, 0:M]*x0 + H, then
// propagates it through the chunk's elements, y_i = T_i*y_{i-1} + F_i,
// writing each x_i = y_i[0:M] into x (and x_0 = x0 on the rank that owns
// block row 0, [lo, hi) being the rank's block rows). The propagation
// ping-pongs between two arena buffers.
func recoverChunk(ws *mat.Workspace, fc *flopCounter, x, x0 *mat.Matrix, lo, hi int,
	s *mat.Matrix, sp mat.PackedA, h *mat.Matrix, elems []element, fs []*mat.Matrix, bs []float64) {
	m, rhs := x0.Rows, x0.Cols
	if lo == 0 && hi > 0 {
		wsBlockOf(ws, x, m, 0).CopyFrom(x0)
	}
	y := applyPrefixState(ws, m, s, sp, h, x0, bs)
	if s != nil {
		fc.add(gemmFlops(2*m, m, rhs) + addFlops(2*m, rhs))
	}
	ybuf := [2]*mat.Matrix{ws.GetNoClear(2*m, rhs), ws.GetNoClear(2*m, rhs)}
	for k, e := range elems {
		dst := ybuf[k&1]
		applyT(ws, e.top, e.tPack, y, fs[k], dst, m, bs)
		y = dst
		fc.add(gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
		wsBlockOf(ws, x, m, e.idx).CopyFrom(ws.View(y, 0, 0, m, rhs))
	}
}

// reducedMatrixWS assembles the M x M reduced system for x_0 from the
// global total prefix (S, H) = P_{N-1} and the last block row:
//
//	(D_{N-1} S11 + L_{N-1} S21) x0 = b_{N-1} - D_{N-1} H1 - L_{N-1} H2
//
// It returns the reduced matrix, checked out of ws with its scratch; the
// right-hand side is assembled separately by reducedRHS so ARD can factor
// the matrix once.
func reducedMatrixWS(ws *mat.Workspace, a *blocktri.Matrix, s *mat.Matrix) *mat.Matrix {
	m := a.M
	last := a.N - 1
	rm := ws.GetNoClear(m, m)
	mat.Mul(rm, a.Diag[last], ws.View(s, 0, 0, m, m))
	tmp := ws.GetNoClear(m, m)
	mat.Mul(tmp, a.Lower[last], ws.View(s, m, 0, m, m))
	mat.Add(rm, rm, tmp)
	return rm
}

// reducedRHS assembles the reduced right-hand side (M x R) from the global
// total prefix H part and the last right-hand-side block. The result is
// checked out of ws. Valid negDiag/negLower are -D_{N-1} and -L_{N-1}
// prepacked with alpha = -1 — exactly the factor MulSub folds on the fly —
// so the packed branch subtracts the same k-ascending product totals and
// stays bit-equal to the fallback.
func reducedRHS(ws *mat.Workspace, a *blocktri.Matrix, h, bLast *mat.Matrix, negDiag, negLower mat.PackedA, bs []float64) *mat.Matrix {
	m, r := a.M, bLast.Cols
	last := a.N - 1
	rhs := ws.CloneOf(bLast)
	if h != nil {
		if negDiag.Valid() && negLower.Valid() && mat.PanelPacked(m, m, r) {
			mat.MulAddPacked(rhs, negDiag, ws.View(h, 0, 0, m, r), bs)
			mat.MulAddPacked(rhs, negLower, ws.View(h, m, 0, m, r), bs)
		} else {
			mat.MulSub(rhs, a.Diag[last], ws.View(h, 0, 0, m, r))
			mat.MulSub(rhs, a.Lower[last], ws.View(h, m, 0, m, r))
		}
	}
	return rhs
}

// checkRHS validates a stacked right-hand side against the system shape.
func checkRHS(a *blocktri.Matrix, b *mat.Matrix) error {
	if b.Rows != a.N*a.M || b.Cols < 1 {
		return fmt.Errorf("%w: got %dx%d, want %d rows", ErrShape, b.Rows, b.Cols, a.N*a.M)
	}
	return nil
}

// wsBlockOf returns the M x R view of block row i within a stacked vector,
// with the view header checked out of a workspace, so hot solve loops
// create no per-iteration garbage.
func wsBlockOf(ws *mat.Workspace, b *mat.Matrix, m, i int) *mat.Matrix {
	return ws.View(b, i*m, 0, m, b.Cols)
}
