package core

import (
	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// Message tags used by the solvers (user range, below the collectives'
// reserved range).
const (
	tagRDScan = 200 + iota
	tagARDFactorScan
	tagARDSolveScan
)

// Config carries the distributed-execution settings shared by the
// distributed solvers.
type Config struct {
	// World is the communicator to run on; nil means a fresh single-rank
	// world (sequential execution through the same code path).
	World *comm.World
}

func (cfg Config) world() *comm.World {
	if cfg.World == nil {
		return comm.NewWorld(1)
	}
	return cfg.World
}

// RD is the classic recursive doubling solver. Every solve rebuilds the
// transfer matrices, re-runs the local O(M^3 N/P) scan and the O(M^3 log P)
// cross-rank scan: nothing is reused between calls. This is the algorithm
// the paper identifies as sub-optimal for repeated solves with the same
// matrix. RD has no factor phase: Factor does nothing, and FactorStats
// counts no work.
type RD struct {
	base
	growth float64 // prefix growth of the solve in flight, set by the last rank
}

// NewRD returns a recursive doubling solver for a over cfg's world.
func NewRD(a *blocktri.Matrix, cfg Config) *RD {
	rd := &RD{}
	rd.init(a, cfg.world(), rd)
	return rd
}

// Name implements Solver.
func (rd *RD) Name() string { return "recursive-doubling" }

// factor is a no-op: RD repeats the matrix work on every solve.
func (rd *RD) factor() error { return nil }

// factorRank is never driven, since factor does nothing.
func (rd *RD) factorRank(*comm.Comm) (int64, error) { return 0, nil }

// solve runs a whole recursive doubling solve. Communication counters are
// owned by the solver: each solve resets the world's totals.
func (rd *RD) solve(x, b *mat.Matrix) error {
	a := rd.a
	if a.N == 1 {
		lu, err := mat.Factor(a.Diag[0])
		if err != nil {
			return err
		}
		lu.SolveTo(x, b)
		rd.solveStats = oneRank(luFlops(a.M) + luSolveFlops(a.M, b.Cols))
		return nil
	}
	if err := rd.drive(x, b); err != nil {
		return err
	}
	rd.solveStats.PrefixGrowth = rd.growth
	return nil
}

// solveRank is one rank's share of a recursive doubling solve; the last
// rank also records the prefix growth diagnostic. All per-solve storage is
// checked out of the rank's arena; RD still redoes every operation per
// solve (that is the algorithm), it just stops paying the allocator for the
// privilege. Element applications go through element.step and the
// recovery through recoverChunk, so RD and ARD keep producing bit-identical
// solutions.
func (rd *RD) solveRank(c *comm.Comm, x, b *mat.Matrix) (int64, error) {
	a := rd.a
	r, p := c.Rank(), c.Size()
	n, m, rhs := a.N, a.M, b.Cols
	lo, hi := PartRange(n, p, r)
	first := max(lo, 1)
	ws := rd.slots[r].ws
	var fc flopCounter

	// Phase 1: build local scan elements and reduce them to the local
	// total — the O(M^3 N/P) term, redone on every RD solve. The elements,
	// the S compose and the H step are ARD's, on unpacked operands, so the
	// two solvers agree bit for bit. The running total ping-pongs between
	// two arena buffers per half.
	elems := make([]element, 0, max(hi-first, 0))
	sbuf := [2]*mat.Matrix{ws.GetNoClear(2*m, 2*m), ws.GetNoClear(2*m, 2*m)}
	hs := newStates(ws, m, rhs)
	bi := wsBlockOf(ws, b, m, 0)
	cur := 0
	localTotal := Affine{}
	var h state
	var buildErr error
	for i := first; i < hi; i++ {
		e, err := buildElement(ws, a, i)
		if err != nil {
			buildErr = err
			break
		}
		fc.add(buildFlops(a, i-1))
		elems = append(elems, e)
		ns, nh := sbuf[cur], hs[cur]
		cur ^= 1
		composeT(ws, ns, e.t.a, mat.PackedA{}, localTotal.S, nil)
		e.step(nh, h, b.ViewInto(bi, (i-1)*m, 0, m, rhs), nil)
		fc.add(stepFlops(m, rhs, localTotal.IsIdentity()))
		if !localTotal.IsIdentity() {
			fc.add(composeFlops(m))
		}
		h = nh
		localTotal = Affine{S: ns, H: h.all}
	}
	if !agree(c, buildErr) {
		return fc.n, buildErr
	}

	// Phase 2: cross-rank exclusive scan by recursive doubling — the
	// O(M^3 log P) term. In round k every rank sends its running aggregate
	// acc 2^k ranks up and folds the one received from 2^k ranks down into
	// both acc and its exclusive prefix pi; ARD's factor phase runs the
	// same butterfly on S alone and its solve phase replays it on H.
	compose := func(earlier, later Affine) Affine {
		if !earlier.IsIdentity() && !later.IsIdentity() {
			fc.add(gemmFlops(2*m, 2*m, 2*m) + gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
		}
		return ComposeAffine(earlier, later)
	}
	acc, pi := localTotal, Affine{}
	for dist := 1; dist < p; dist <<= 1 {
		if r+dist < p {
			c.Send(r+dist, tagRDScan, encodeAffine(acc))
		}
		if r-dist >= 0 {
			recv := decodeAffine(c.Recv(r-dist, tagRDScan))
			pi = compose(recv, pi)
			acc = compose(recv, acc)
		}
	}

	// Phase 3: reduced system for x_0 on the last rank, then broadcast.
	// Every rank checks out the x0 buffer so the broadcast decodes in place.
	x0 := ws.GetNoClear(m, rhs)
	var err error
	if r == p-1 {
		totalS, totalH := localTotal.S, localTotal.H
		if !pi.IsIdentity() {
			fc.add(gemmFlops(2*m, 2*m, 2*m) + gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
			ts := ws.GetNoClear(2*m, 2*m)
			mat.Mul(ts, localTotal.S, pi.S)
			totalH = composeHWS(ws, pi.H, localTotal.S, mat.PackedA{}, localTotal.H, nil)
			totalS = ts
		}
		rd.growth = mat.NormFrob(totalS)
		rm := reducedMatrixWS(ws, a, totalS)
		fc.add(2 * gemmFlops(m, m, m))
		var luRm *mat.LU
		if luRm, err = ws.LU(rm); err == nil {
			fc.add(luFlops(m))
			rrhs := reducedRHS(ws, a, totalH, wsBlockOf(ws, b, m, n-1), mat.PackedA{}, mat.PackedA{}, nil)
			fc.add(2 * gemmFlops(m, m, rhs))
			luRm.SolveTo(x0, rrhs)
			fc.add(luSolveFlops(m, rhs))
		}
	}
	if !agree(c, err) {
		return fc.n, err
	}
	c.BcastMatrixInto(p-1, x0)

	// Phase 4: local recovery by state propagation — O(M^2 R N/P).
	recoverChunk(ws, &fc, x, b, x0, lo, hi, pi.S, mat.PackedA{}, pi.H, elems, nil)
	return fc.n, nil
}
