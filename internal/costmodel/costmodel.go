// Package costmodel provides analytic cost predictions for every solver in
// internal/core: exact floating-point operation counts (mirroring, by
// independent construction, the counters the solvers accumulate at run
// time — the model and the instrumentation double-enter each other), plus
// alpha-beta communication estimates and wall-time predictions under a
// simple machine model.
//
// The headline quantities reproduce the paper's complexity analysis:
//
//	RD solve:    O(M^3 (N/P + log P))  per call, every call
//	ARD factor:  O(M^3 (N/P + log P))  once per matrix
//	ARD solve:   O(M^2 R (N/P + log P)) per call
//
// so R sequential single-right-hand-side solves cost R*M^3-ish under RD
// and M^3 + R*M^2-ish under ARD: the paper's O(R) improvement, saturating
// at O(M) once R exceeds the block size.
package costmodel

import (
	"blocktri/internal/comm"
	"blocktri/internal/core"
)

// Params identifies a problem/machine configuration.
type Params struct {
	N int // block rows
	M int // block size
	P int // ranks
	R int // right-hand-side columns per solve (batch width)
}

// Cost is a predicted cost breakdown.
type Cost struct {
	// Flops is the total operation count across ranks.
	Flops int64
	// MaxRankFlops is the largest per-rank count (compute critical path).
	MaxRankFlops int64
	// ScanWords is the total number of float64 words moved by the
	// cross-rank scan's sends (model of the bandwidth term).
	ScanWords int64
	// Rounds is the number of scan communication rounds (latency term).
	Rounds int
}

// Machine translates a Cost into predicted seconds.
type Machine struct {
	FlopsPerSec float64
	Net         comm.CostModel
}

// Time predicts the wall time of a bulk-synchronous step: compute critical
// path plus modeled network time for the scan traffic.
func (mc Machine) Time(c Cost) float64 {
	t := float64(c.MaxRankFlops) / mc.FlopsPerSec
	t += float64(c.Rounds) * mc.Net.Alpha
	t += float64(c.ScanWords) * 8 * mc.Net.Beta
	return t
}

// Flop-count helpers identical to the solvers' conventions.
func luFlops(n int) int64         { return 2 * int64(n) * int64(n) * int64(n) / 3 }
func luSolveFlops(n, r int) int64 { return 2 * int64(n) * int64(n) * int64(r) }
func gemmFlops(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
func addFlops(m, n int) int64     { return int64(m) * int64(n) }

// DenseFactor predicts the dense LU factor cost.
func DenseFactor(p Params) Cost {
	f := luFlops(p.N * p.M)
	return Cost{Flops: f, MaxRankFlops: f}
}

// DenseSolve predicts the dense LU solve cost.
func DenseSolve(p Params) Cost {
	f := luSolveFlops(p.N*p.M, p.R)
	return Cost{Flops: f, MaxRankFlops: f}
}

// ThomasFactor predicts the block Thomas factorization cost: one LU per
// block row plus one M-column solve and one GEMM per interior row.
func ThomasFactor(p Params) Cost {
	f := int64(p.N) * luFlops(p.M)
	f += int64(p.N-1) * (luSolveFlops(p.M, p.M) + gemmFlops(p.M, p.M, p.M))
	return Cost{Flops: f, MaxRankFlops: f}
}

// ThomasSolve predicts the block Thomas solve cost: one triangular solve
// per row in the forward sweep plus two GEMMs per interior row.
func ThomasSolve(p Params) Cost {
	f := int64(p.N) * luSolveFlops(p.M, p.R)
	f += int64(p.N-1) * 2 * gemmFlops(p.M, p.M, p.R)
	return Cost{Flops: f, MaxRankFlops: f}
}

// scanState simulates which ranks hold non-identity aggregates during the
// cross-rank Kogge-Stone scan, which determines exactly which combines
// (and hence flops) occur.
type scanState struct {
	accNonID []bool
	preNonID []bool
}

func newScanState(elemsPerRank []int) *scanState {
	p := len(elemsPerRank)
	st := &scanState{accNonID: make([]bool, p), preNonID: make([]bool, p)}
	for r, e := range elemsPerRank {
		st.accNonID[r] = e > 0
	}
	return st
}

// step advances the scan by one round of the given distance, invoking
// onCombine(rank) for every non-identity combine performed at that rank
// and onSend(rank, nonIdentity) for every message sent.
func (st *scanState) step(dist int, onCombine func(rank int), onSend func(rank int, nonID bool)) {
	p := len(st.accNonID)
	accPrev := make([]bool, p)
	copy(accPrev, st.accNonID)
	for r := 0; r < p; r++ {
		if r+dist < p {
			onSend(r, accPrev[r])
		}
		if r-dist >= 0 && accPrev[r-dist] {
			if st.preNonID[r] {
				onCombine(r)
			}
			st.preNonID[r] = true
			if st.accNonID[r] {
				onCombine(r)
			}
			st.accNonID[r] = true
		}
	}
}

// elemsPerRank returns the number of scan elements each rank owns.
func elemsPerRank(n, p int) []int {
	out := make([]int, p)
	for r := 0; r < p; r++ {
		lo, hi := core.PartRange(n, p, r)
		first := lo
		if first < 1 {
			first = 1
		}
		if hi > first {
			out[r] = hi - first
		}
	}
	return out
}

// RDSolve predicts the cost of one classic recursive doubling solve, its
// Kogge-Stone rounds included, mirroring core.RD's instrumentation exactly.
func RDSolve(p Params) Cost {
	n, m, r, pr := p.N, p.M, p.R, p.P
	if n == 1 {
		f := luFlops(m) + luSolveFlops(m, r)
		return Cost{Flops: f, MaxRankFlops: f}
	}
	perRank := make([]int64, pr)
	elems := elemsPerRank(n, pr)
	combine := gemmFlops(2*m, 2*m, 2*m) + gemmFlops(2*m, 2*m, r) + addFlops(2*m, r)

	// Phase 1: element construction (U's LU and the [-D -L I] solve) and
	// local reduction, each step multiplying U^{-1} into its block of b and
	// each later one composing through T's structure.
	for rank := 0; rank < pr; rank++ {
		lo, hi := core.PartRange(n, pr, rank)
		first := lo
		if first < 1 {
			first = 1
		}
		for i := first; i < hi; i++ {
			perRank[rank] += elementFlops(m, i) + gemmFlops(m, m, r)
			if i > first {
				perRank[rank] += composeT(m) + applyT(m, r)
			}
		}
	}
	// Phase 2: cross-rank scan.
	var scanWords int64
	rounds := 0
	st := newScanState(elems)
	affineWords := int64(1 + (1 + 2 + 4*m*m) + (2 + 2*m*r)) // flag + count hdr + S + H
	for dist := 1; dist < pr; dist <<= 1 {
		rounds++
		st.step(dist,
			func(rank int) { perRank[rank] += combine },
			func(rank int, nonID bool) {
				if nonID {
					scanWords += affineWords
				} else {
					scanWords++
				}
			})
	}
	// Phase 3: reduced system at the last rank.
	last := pr - 1
	if st.preNonID[last] {
		perRank[last] += combine
	}
	perRank[last] += 2*gemmFlops(m, m, m) + luFlops(m) + 2*gemmFlops(m, m, r) + luSolveFlops(m, r)
	// Phase 4: recovery.
	recovery(perRank, st, elems, m, r)
	return fold(perRank, scanWords, rounds)
}

// elementFlops is the cost of building scan element i: U's LU and the
// substitution U^{-1} [-D -L I], less the -L columns for element 1, whose
// block row 0 has no L.
func elementFlops(m, i int) int64 {
	f := luFlops(m) + 2*luSolveFlops(m, m)
	if i-1 > 0 {
		f += luSolveFlops(m, m)
	}
	return f
}

// The element operations the local scans and sweeps perform through T's
// block structure [[TL TR],[I 0]]: only the M x 2M top half multiplies,
// and the bottom half is a copy.
//
// composeT is one local compose of the matrix halves, [TL TR] times a
// 2M x 2M S.
func composeT(m int) int64 { return gemmFlops(m, 2*m, 2*m) }

// applyT is one element step's T product on a nonzero state, [TL TR]
// times a 2M x R panel, added to the U^{-1} product (F's nonzero half).
func applyT(m, r int) int64 { return gemmFlops(m, 2*m, r) + addFlops(m, r) }

// recovery adds RD's and ARD's shared recovery sweep to perRank: the
// prefix state on ranks with a non-identity prefix, then one element step
// per element, the U^{-1} product plus T applied through its structure.
func recovery(perRank []int64, st *scanState, elems []int, m, r int) {
	step := gemmFlops(m, m, r) + applyT(m, r)
	for rank := range perRank {
		if st.preNonID[rank] {
			perRank[rank] += gemmFlops(2*m, m, r) + addFlops(2*m, r)
		}
		perRank[rank] += int64(elems[rank]) * step
	}
}

// ARDFactor predicts the once-per-matrix cost of ARD's factor phase.
func ARDFactor(p Params) Cost {
	n, m, pr := p.N, p.M, p.P
	if n == 1 {
		f := luFlops(m)
		return Cost{Flops: f, MaxRankFlops: f}
	}
	perRank := make([]int64, pr)
	elems := elemsPerRank(n, pr)
	combineS := gemmFlops(2*m, 2*m, 2*m)
	for rank := 0; rank < pr; rank++ {
		lo, hi := core.PartRange(n, pr, rank)
		first := lo
		if first < 1 {
			first = 1
		}
		for i := first; i < hi; i++ {
			perRank[rank] += elementFlops(m, i)
			if i > first {
				perRank[rank] += composeT(m)
			}
		}
	}
	var scanWords int64
	rounds := 0
	st := newScanState(elems)
	sWords := int64(1 + 2 + 4*m*m)
	for dist := 1; dist < pr; dist <<= 1 {
		rounds++
		st.step(dist,
			func(rank int) { perRank[rank] += combineS },
			func(rank int, nonID bool) {
				if nonID {
					scanWords += sWords
				} else {
					scanWords++
				}
			})
	}
	last := pr - 1
	if st.preNonID[last] {
		perRank[last] += combineS
	}
	perRank[last] += 2*gemmFlops(m, m, m) + luFlops(m)
	return fold(perRank, scanWords, rounds)
}

// ARDSolve predicts the per-call cost of ARD's solve phase: only M^2-sized
// kernels, only 2M x R payloads on the wire. Each element step multiplies
// U^{-1} into its block of b, in the local fold and again in recovery.
func ARDSolve(p Params) Cost {
	n, m, r, pr := p.N, p.M, p.R, p.P
	if n == 1 {
		f := luSolveFlops(m, r)
		return Cost{Flops: f, MaxRankFlops: f}
	}
	perRank := make([]int64, pr)
	elems := elemsPerRank(n, pr)
	combineH := gemmFlops(2*m, 2*m, r) + addFlops(2*m, r)
	for rank := 0; rank < pr; rank++ {
		e := elems[rank]
		perRank[rank] += int64(e) * gemmFlops(m, m, r)
		if e > 1 {
			perRank[rank] += int64(e-1) * applyT(m, r)
		}
	}
	var scanWords int64
	rounds := 0
	st := newScanState(elems)
	hWords := int64(1 + 2 + 2*m*r)
	for dist := 1; dist < pr; dist <<= 1 {
		rounds++
		st.step(dist,
			func(rank int) { perRank[rank] += combineH },
			func(rank int, nonID bool) {
				if nonID {
					scanWords += hWords
				} else {
					scanWords++
				}
			})
	}
	last := pr - 1
	if st.preNonID[last] {
		perRank[last] += combineH
	}
	perRank[last] += 2*gemmFlops(m, m, r) + luSolveFlops(m, r)
	recovery(perRank, st, elems, m, r)
	return fold(perRank, scanWords, rounds)
}

func fold(perRank []int64, scanWords int64, rounds int) Cost {
	var c Cost
	c.ScanWords = scanWords
	c.Rounds = rounds
	for _, f := range perRank {
		c.Flops += f
		if f > c.MaxRankFlops {
			c.MaxRankFlops = f
		}
	}
	return c
}

// PredictedSpeedup returns the flop-based predicted speedup of ARD over RD
// when solving nrhs sequential single-batch solves with the same matrix:
//
//	speedup = nrhs * RDsolve / (ARDfactor + nrhs * ARDsolve)
//
// computed on the compute critical path. This is the curve of the paper's
// headline figure: ~linear in nrhs until it saturates near O(M).
func PredictedSpeedup(p Params, nrhs int) float64 {
	rd := float64(RDSolve(p).MaxRankFlops)
	af := float64(ARDFactor(p).MaxRankFlops)
	as := float64(ARDSolve(p).MaxRankFlops)
	return float64(nrhs) * rd / (af + float64(nrhs)*as)
}

// SpikeFactor predicts the SPIKE partition method's factor cost: a local
// block Thomas factorization plus up to two M-column spike solves per
// rank, and the (P-1)-row reduced factorization at the root.
func SpikeFactor(p Params) Cost {
	if p.P == 1 {
		return ThomasFactor(p)
	}
	perRank := make([]int64, p.P)
	for r := 0; r < p.P; r++ {
		lo, hi := core.PartRange(p.N, p.P, r)
		nr := hi - lo
		chunk := Params{N: nr, M: p.M}
		perRank[r] = ThomasFactor(chunk).Flops
		if r > 0 {
			perRank[r] += ThomasSolve(Params{N: nr, M: p.M, R: p.M}).Flops
		}
		if r < p.P-1 {
			perRank[r] += ThomasSolve(Params{N: nr, M: p.M, R: p.M}).Flops
		}
	}
	perRank[0] += ThomasFactor(Params{N: p.P - 1, M: 2 * p.M}).Flops
	return fold(perRank, 0, 0)
}

// SpikeSolve predicts SPIKE's per-solve cost: a local chunk solve, the
// reduced solve at the root, and up to two spike-update GEMMs per rank.
func SpikeSolve(p Params) Cost {
	if p.P == 1 {
		return ThomasSolve(p)
	}
	perRank := make([]int64, p.P)
	for r := 0; r < p.P; r++ {
		lo, hi := core.PartRange(p.N, p.P, r)
		nr := hi - lo
		perRank[r] = ThomasSolve(Params{N: nr, M: p.M, R: p.R}).Flops
		if r > 0 {
			perRank[r] += gemmFlops(nr*p.M, p.M, p.R)
		}
		if r < p.P-1 {
			perRank[r] += gemmFlops(nr*p.M, p.M, p.R)
		}
	}
	perRank[0] += ThomasSolve(Params{N: p.P - 1, M: 2 * p.M, R: p.R}).Flops
	return fold(perRank, 0, 0)
}
