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
// built from block row j = i-1. It keeps two operands, T's top half
// [TL TR] and U^{-1}. T's [I 0] bottom and F's zero bottom are structure,
// applied as a copy, and F is never formed: step multiplies U^{-1} into
// the right-hand block in place.
type element struct {
	idx int     // element index i (the state it produces)
	t   operand // [TL TR] = -U^{-1} [D_j L_j], M x 2M
	u   operand // U_j^{-1}, M x M
}

// operand is a matrix the solve phase multiplies into right-hand panels,
// held in one form. ARD's factor phase keeps a standalone pack
// (mat.PackStandalone) and drops the matrix, or keeps the matrix alone
// where no pack serves every width; RD's per-solve elements stay
// unpacked. Both forms give the same bits: MulAddPacked equals GEMM.
type operand struct {
	a *mat.Matrix
	p mat.PackedA
}

// mulAdd computes dst += o*b, scratching the packed path's panel in bs.
//
//perf:hotpath
func (o *operand) mulAdd(dst, b *mat.Matrix, bs []float64) {
	if o.p.Valid() {
		mat.MulAddPacked(dst, o.p, b, bs)
		return
	}
	mat.MulAdd(dst, o.a, b)
}

// keep returns e with both operands copied into store, each as a
// standalone pack when one serves every width and as the matrix
// otherwise, so e's build scratch can be recycled.
func (e *element) keep(store *mat.Workspace) element {
	op := func(a *mat.Matrix) operand {
		if mat.PackStandalone(a.Rows, a.Cols) {
			return operand{p: mat.PackAInto(store.Floats(mat.PackALen(a.Rows, a.Cols)), 1, a)}
		}
		return operand{a: store.CloneOf(a)}
	}
	return element{idx: e.idx, u: op(e.u.a), t: op(e.t.a)}
}

// elementFloats is the float64 count keep stores for one element of
// block size m.
func elementFloats(m int) int {
	n := 0
	for _, k := range []int{m, 2 * m} {
		if mat.PackStandalone(m, k) {
			n += mat.PackALen(m, k)
		} else {
			n += m * k
		}
	}
	return n
}

// newElementStore returns the store a rank's ne elements of block size m
// are kept in: one slab sized once, each element's U^{-1} and [TL TR]
// side by side in the order a solve streams them.
func newElementStore(m, ne int) *mat.Workspace {
	store := mat.NewWorkspace()
	store.Reserve(ne*elementFloats(m), 0)
	return store
}

// buildElement constructs element i with U's factorization and one M x 3M
// buffer checked out of ws (RD's per-solve arena, or the build scratch of
// ARD's factor, LoadFactor, SaveFactor and EstimateGrowth); the element's
// operands are unpacked views of the buffer. It costs one M x M LU
// factorization plus one 3M-column substitution, U [X Y Z] = [-D -L I],
// which yields [TL TR] = [X Y] and U^{-1} = Z: negation commutes with
// every rounding, so [X Y] equals -U^{-1}D and -U^{-1}L solved apart and
// negated afterwards (up to the sign of exact zeros), and the
// substitution's per-column arithmetic does not depend on the panel width,
// so Z is also the M-column solve of I alone. O(M^3).
func buildElement(ws *mat.Workspace, a *blocktri.Matrix, i int) (element, error) {
	j := i - 1
	m := a.M
	luU, err := ws.LU(a.Upper[j])
	if err != nil {
		return element{}, fmt.Errorf("block row %d: %w", j, ErrSingularSuper)
	}
	w := ws.GetNoClear(m, 3*m)
	uInv := ws.View(w, 0, 2*m, m, m)
	mat.Neg(ws.View(w, 0, 0, m, m), a.Diag[j])
	uInv.SetIdentity()
	if a.Lower[j] != nil {
		mat.Neg(ws.View(w, 0, m, m, m), a.Lower[j])
		luU.SolveInPlace(w)
	} else {
		// TR stays zero (x_{-1} = 0), so only -D and I are solved for.
		ws.View(w, 0, m, m, m).Zero()
		luU.SolveInPlace(ws.View(w, 0, 0, m, m))
		luU.SolveInPlace(uInv)
	}
	return element{idx: i, t: operand{a: ws.View(w, 0, 0, m, 2*m)}, u: operand{a: uInv}}, nil
}

// buildFlops is buildElement's operation count for block row j.
func buildFlops(a *blocktri.Matrix, j int) int64 {
	m := a.M
	f := luFlops(m) + 2*luSolveFlops(m, m) // factor U, solve for -D and I
	if a.Lower[j] != nil {
		f += luSolveFlops(m, m)
	}
	return f
}

// state is a 2M x R scan state y_i = [x_i ; x_{i-1}] with its halves
// viewed once. The element steps of a fold or a recovery sweep alternate
// between two states, so a step checks out no view header. The zero value
// is the zero state entering a local fold.
type state struct{ all, top, bot *mat.Matrix }

// stateOf views the halves of the 2M x R matrix y.
func stateOf(ws *mat.Workspace, y *mat.Matrix) state {
	m := y.Rows / 2
	return state{all: y, top: ws.View(y, 0, 0, m, y.Cols), bot: ws.View(y, m, 0, m, y.Cols)}
}

// newStates checks out the two states a sweep at width rhs alternates
// between.
func newStates(ws *mat.Workspace, m, rhs int) [2]state {
	return [2]state{stateOf(ws, ws.GetNoClear(2*m, rhs)), stateOf(ws, ws.GetNoClear(2*m, rhs))}
}

// step computes dst = T*y + F (2M x R) for the element and its
// right-hand block b = b_{i-1} (M x R, read in place), exploiting T's
// block structure [[TL TR],[I 0]] and F's zero bottom half:
//
//	dst_top = U^{-1}*b + [TL TR]*y,  dst_bot = y_top
//
// For the zero state y, dst = F. The products add into a zeroed dst_top in
// this order whatever form the operands take (two packs go through
// mat.MulPackedPair, which fuses the sequence at one column), so RD's
// unpacked elements and ARD's packed ones give the same bits: both solvers
// route every element application, in the local fold and in the recovery
// sweep, through here. dst must not alias y or b; bs must hold
// mat.PackBLen(2M, R) floats for packed operands.
//
//perf:hotpath
func (e *element) step(dst, y state, b *mat.Matrix, bs []float64) {
	switch {
	case y.all == nil:
		dst.top.Zero()
		e.u.mulAdd(dst.top, b, bs)
		dst.bot.Zero()
		return
	case e.u.p.Valid() && e.t.p.Valid():
		mat.MulPackedPair(dst.top, e.u.p, b, e.t.p, y.all, bs)
	default:
		dst.top.Zero()
		e.u.mulAdd(dst.top, b, bs)
		e.t.mulAdd(dst.top, y.all, bs)
	}
	dst.bot.CopyFrom(y.top)
}

// stepFlops is the operation count of one step at width rhs, as
// performed: the U^{-1} product, and for a nonzero state the [TL TR]
// product added to it (F's nonzero half); dst_bot is a copy.
func stepFlops(m, rhs int, zeroState bool) int64 {
	f := gemmFlops(m, m, rhs)
	if !zeroState {
		f += gemmFlops(m, 2*m, rhs) + addFlops(m, rhs)
	}
	return f
}

// composeFlops is composeT's operation count for a non-nil s: the
// [TL TR] product. dst_bot is a copy (its +0 only normalizes a -0).
func composeFlops(m int) int64 { return gemmFlops(m, 2*m, 2*m) }

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
// propagates it through the chunk's elements, y_i = T_i*y_{i-1} + F_i
// with F_i's U^{-1} product recomputed from b, writing each x_i = y_i[0:M]
// into x (and x_0 = x0 on the rank that owns block row 0, [lo, hi) being
// the rank's block rows). The propagation alternates between two states,
// and one header each for b's and x's block is re-pointed per element.
func recoverChunk(ws *mat.Workspace, fc *flopCounter, x, b, x0 *mat.Matrix, lo, hi int,
	s *mat.Matrix, sp mat.PackedA, h *mat.Matrix, elems []element, bs []float64) {
	m, rhs := x0.Rows, x0.Cols
	if lo == 0 && hi > 0 {
		wsBlockOf(ws, x, m, 0).CopyFrom(x0)
	}
	y := stateOf(ws, applyPrefixState(ws, m, s, sp, h, x0, bs))
	if s != nil {
		fc.add(gemmFlops(2*m, m, rhs) + addFlops(2*m, rhs))
	}
	ys := newStates(ws, m, rhs)
	bi, xi := wsBlockOf(ws, b, m, 0), wsBlockOf(ws, x, m, 0)
	for k := range elems {
		e := &elems[k]
		dst := ys[k&1]
		e.step(dst, y, b.ViewInto(bi, (e.idx-1)*m, 0, m, rhs), bs)
		y = dst
		fc.add(stepFlops(m, rhs, false))
		x.ViewInto(xi, e.idx*m, 0, m, rhs).CopyFrom(y.top)
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
// stays bit-equal to the fallback. Below the packed kernels a product
// accumulated into a nonzero destination rounds differently at width 1
// (gemv) and wider, so there each product goes into zeroed scratch and is
// subtracted elementwise, which gives every column the same bits at every
// width.
func reducedRHS(ws *mat.Workspace, a *blocktri.Matrix, h, bLast *mat.Matrix, negDiag, negLower mat.PackedA, bs []float64) *mat.Matrix {
	m, r := a.M, bLast.Cols
	last := a.N - 1
	rhs := ws.CloneOf(bLast)
	switch {
	case h == nil:
	case !mat.PanelPacked(m, m, r):
		t := ws.GetNoClear(m, r)
		mat.Mul(t, a.Diag[last], ws.View(h, 0, 0, m, r))
		mat.Sub(rhs, rhs, t)
		mat.Mul(t, a.Lower[last], ws.View(h, m, 0, m, r))
		mat.Sub(rhs, rhs, t)
	case negDiag.Valid() && negLower.Valid():
		mat.MulAddPacked(rhs, negDiag, ws.View(h, 0, 0, m, r), bs)
		mat.MulAddPacked(rhs, negLower, ws.View(h, m, 0, m, r), bs)
	default:
		mat.MulSub(rhs, a.Diag[last], ws.View(h, 0, 0, m, r))
		mat.MulSub(rhs, a.Lower[last], ws.View(h, m, 0, m, r))
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
