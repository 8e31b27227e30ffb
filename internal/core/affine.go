// Package core implements the paper's solvers for block tridiagonal
// systems: the sequential block Thomas algorithm and the SPIKE partition
// method as baselines, the classic recursive doubling (RD) algorithm, the
// paper's contribution, the accelerated recursive doubling (ARD)
// algorithm that separates the matrix-dependent prefix computation from
// the right-hand-side-dependent work so that solving with R right-hand
// sides costs O(M^3 (N/P + log P)) once plus O(M^2 (N/P + log P)) per
// right-hand side, an O(R) improvement over RD's per-solve O(M^3) cost,
// and dense LU as the reference.
//
// Every solver implements Solver on one shared skeleton (solver.go) and
// accepts stacked multi-right-hand-side matrices: b is (N*M) x R with
// block row i occupying rows [i*M, (i+1)*M).
package core

import (
	"fmt"

	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// Affine is an element of the scan semigroup used by recursive doubling:
// the affine map y -> S*y + H acting on the stacked state
// y_i = [x_i ; x_{i-1}] (2M rows). H carries one column per right-hand
// side. A nil S (with nil H) is the identity element, used by ranks that
// own no elements.
type Affine struct {
	S *mat.Matrix // 2M x 2M, nil for the identity
	H *mat.Matrix // 2M x R, nil for the identity
}

// IsIdentity reports whether a is the identity element.
func (a Affine) IsIdentity() bool { return a.S == nil }

// ComposeAffine returns later ∘ earlier: applying earlier first, then
// later. S = Sl*Se and H = Sl*He + Hl. Either operand may be the identity.
func ComposeAffine(earlier, later Affine) Affine {
	if earlier.IsIdentity() {
		return later
	}
	if later.IsIdentity() {
		return earlier
	}
	s := mat.New(later.S.Rows, earlier.S.Cols)
	mat.Mul(s, later.S, earlier.S)
	h := mat.New(later.S.Rows, earlier.H.Cols)
	mat.Mul(h, later.S, earlier.H)
	mat.Add(h, h, later.H)
	return Affine{S: s, H: h}
}

// composeHWS computes only the H part of later ∘ earlier when later's S is
// already known (the ARD solve-phase combine): S_later*H_earlier +
// H_later, with the result checked out of a workspace. Its operations, and
// so its bits, are ComposeAffine's. laterS must be non-nil; earlierH may
// be nil (identity), in which case laterH is returned unchanged (shared,
// not copied). A valid sp is laterS prepacked (ARD's factor phase packs
// every stored S once); the packed branch seeds the result with laterH and
// adds the product total once, which rounds identically to the fallback's
// product-then-add because IEEE addition commutes.
//
//perf:hotpath
func composeHWS(ws *mat.Workspace, earlierH, laterS *mat.Matrix, sp mat.PackedA, laterH *mat.Matrix, bs []float64) *mat.Matrix {
	if earlierH == nil {
		return laterH
	}
	h := ws.GetNoClear(laterS.Rows, earlierH.Cols)
	if sp.Valid() && mat.PanelPacked(laterS.Rows, laterS.Cols, earlierH.Cols) {
		h.CopyFrom(laterH)
		mat.MulAddPacked(h, sp, earlierH, bs)
		return h
	}
	mat.Mul(h, laterS, earlierH)
	mat.Add(h, h, laterH)
	return h
}

// encodeAffine serializes an Affine for RD's cross-rank scan. The
// identity is a single 0 flag word.
func encodeAffine(a Affine) []float64 {
	if a.IsIdentity() {
		return []float64{0}
	}
	payload := comm.EncodeMatrices(a.S, a.H)
	out := make([]float64, 0, 1+len(payload))
	out = append(out, 1)
	return append(out, payload...)
}

func decodeAffine(p []float64) Affine {
	if len(p) == 0 {
		comm.Throw(fmt.Errorf("core: empty affine payload: %w", comm.ErrMalformedPayload))
	}
	if p[0] == 0 {
		return Affine{}
	}
	ms := comm.DecodeMatrices(p[1:])
	if len(ms) != 2 {
		comm.Throw(fmt.Errorf("core: affine payload carries %d matrices, want 2: %w",
			len(ms), comm.ErrMalformedPayload))
	}
	return Affine{S: ms[0], H: ms[1]}
}

// encodeSMat serializes a bare S matrix (ARD factor phase) with the
// same identity convention.
func encodeSMat(s *mat.Matrix) []float64 {
	if s == nil {
		return []float64{0}
	}
	out := make([]float64, 0, 3+s.Rows*s.Cols)
	out = append(out, 1)
	return append(out, comm.EncodeMatrix(s)...)
}

func decodeSMat(p []float64) *mat.Matrix {
	if len(p) == 0 {
		comm.Throw(fmt.Errorf("core: empty S payload: %w", comm.ErrMalformedPayload))
	}
	if p[0] == 0 {
		return nil
	}
	return comm.DecodeMatrix(p[1:])
}

// packHMat packs a bare H panel (ARD solve phase, nil = identity) into a
// pooled comm buffer in the same [flag, rows, cols, data...] wire format as
// encodeSMat, for the caller to hand to SendOwned. Assembling the payload
// in the comm buffer lets each scan round move its whole 2M x R panel in
// one message with a single copy — no workspace-scratch staging and no
// second copy inside Send. The send stays at the call site so the rank/tag
// pairing of the butterfly remains visible in the scan loop itself.
//
//perf:hotpath
func packHMat(c *comm.Comm, h *mat.Matrix) []float64 {
	if h == nil {
		buf := c.PayloadBuf(1)
		buf[0] = 0
		return buf
	}
	buf := c.PayloadBuf(3 + h.Rows*h.Cols)
	buf[0], buf[1], buf[2] = 1, float64(h.Rows), float64(h.Cols)
	k := 3
	//lint:ignore perfbce the source and destination window checks per row are beyond the prover; buf is sized 3+Rows*Cols up front and k advances by Cols
	//perf:hotloop
	for i := 0; i < h.Rows; i++ {
		copy(buf[k:k+h.Cols], h.Data[i*h.Stride:i*h.Stride+h.Cols])
		k += h.Cols
	}
	return buf
}

// decodeHMatWS decodes a packHMat/encodeSMat payload into workspace
// storage (nil for the identity flag). It copies, so the caller may Release
// the payload afterwards.
func decodeHMatWS(ws *mat.Workspace, p []float64) *mat.Matrix {
	if len(p) == 0 {
		comm.Throw(fmt.Errorf("core: empty H payload: %w", comm.ErrMalformedPayload))
	}
	if p[0] == 0 {
		return nil
	}
	r, c, err := comm.MatrixHeader(p[1:])
	if err != nil {
		comm.Throw(fmt.Errorf("core: H payload: %w", err))
	}
	h := ws.GetNoClear(r, c)
	copy(h.Data, p[3:])
	return h
}

// composeS returns the S part of later ∘ earlier where either side may be
// nil (identity): Sl*Se.
func composeS(earlier, later *mat.Matrix) *mat.Matrix {
	if earlier == nil {
		return later
	}
	if later == nil {
		return earlier
	}
	s := mat.New(later.Rows, earlier.Cols)
	mat.Mul(s, later, earlier)
	return s
}
