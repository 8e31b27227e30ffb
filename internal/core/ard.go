package core

import (
	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// ARD is the accelerated recursive doubling solver — the paper's
// contribution. It splits the computation that classic RD repeats on every
// solve into:
//
//   - Factor, once per matrix: build each element's two operands, the
//     transfer matrix's M x 2M top half (its [I 0] bottom is structure,
//     never stored) and the inverse of the super-diagonal block, run the
//     local scan through the structured compose and the cross-rank scan on
//     the matrix halves, and store every intermediate the right-hand-side
//     path will need — the element operands, the per-rank local total S,
//     the per-round Kogge-Stone partial products, the final exclusive
//     prefix S, and the factored M x M reduced system. Cost
//     O(M^3 (N/P + log P)).
//
//   - Solve, per right-hand side (batch): only the vector halves move.
//     Each element step is two stored-matrix products, h := [TL TR]*h +
//     U^{-1}*b, read from b in place, every scan combine is a stored-matrix
//     times vector-block product, and each Kogge-Stone round exchanges
//     2M*R words instead of (2M)^2 + 2M*R. Cost O(M^2 R (N/P + log P)).
//
// Solving with R right-hand sides therefore costs one M^3 term plus R
// M^2 terms, versus RD's R separate M^3 terms — the O(R) improvement the
// paper reports (saturating at O(M) once R grows past the block size).
//
// ARD's solve phase replays the factor phase's Kogge-Stone rounds
// exactly, so given the same inputs ARD(Factor+Solve) and RD produce
// bit-identical solutions.
type ARD struct {
	base

	rk     []*ardRankState // per-rank factor state
	luRm   *mat.LU         // factored reduced system (rank P-1)
	growth float64         // prefix growth diagnostic from Factor

	// negDiagPack/negLowerPack hold -D_{N-1} and -L_{N-1} prepacked with
	// alpha = -1 for the reducedRHS subtractions, completing the set of
	// factor-time packs (see buildPacks) that turn the whole solve phase
	// into packed panel products.
	negDiagPack  mat.PackedA
	negLowerPack mat.PackedA
}

// ardRound records one Kogge-Stone round's entry values from the factor
// phase, consumed by the solve-phase replay. The packs mirror preS/accS so
// each replay combine is one packed panel product.
type ardRound struct {
	dist     int
	preS     *mat.Matrix // exclusive-prefix S at round entry (nil = identity)
	accS     *mat.Matrix // inclusive-aggregate S at round entry (nil = identity)
	preSPack mat.PackedA
	accSPack mat.PackedA
}

// ardRankState is everything one rank stores between Factor and Solve.
type ardRankState struct {
	lo, hi, first int
	elems         []element   // [TL TR] and U^{-1}, kept by element.keep
	localTotalS   *mat.Matrix // S of the local reduce (nil if no elements)
	rounds        []ardRound
	piS           *mat.Matrix // final exclusive cross-rank prefix S (nil = identity)

	// Packed images of the stored matrices, built by buildPacks so the
	// solve phase multiplies prepacked panels instead of repacking (or
	// falling to the unpacked kernel) on every call.
	localTotalSPack mat.PackedA
	piSLeftPack     mat.PackedA // piS[:, 0:M], the applyPrefixState operand
}

// NewARD returns an accelerated recursive doubling solver for a over
// cfg's world.
func NewARD(a *blocktri.Matrix, cfg Config) *ARD {
	s := &ARD{}
	s.init(a, cfg.world(), s)
	return s
}

// Name implements Solver.
func (s *ARD) Name() string { return "accelerated-recursive-doubling" }

// factor is the once-per-matrix O(M^3 (N/P + log P)) precomputation.
func (s *ARD) factor() error {
	a := s.a
	if a.N == 1 {
		lu, err := mat.Factor(a.Diag[0])
		if err != nil {
			return err
		}
		s.luRm = lu
		s.factorStats = oneRank(luFlops(a.M))
		return nil
	}
	s.rk = make([]*ardRankState, s.world.P)
	if err := s.drive(nil, nil); err != nil {
		s.rk = nil
		return err
	}
	s.buildPacks()
	s.factorStats.PrefixGrowth = s.growth
	s.factorStats.StoredBytes = s.storedBytes()
	return nil
}

// buildPacks assembles the packed images of the stored scan matrices the
// solve phase multiplies: the local scan totals, the per-round Kogge-Stone
// snapshots, the exclusive prefix's left half, and the negated last block
// row (the element packs are built with the elements). Packing here — once
// per matrix, after Factor or LoadFactor — leaves the per-solve cost at
// packing the right-hand-side panel alone.
func (s *ARD) buildPacks() {
	a := s.a
	m := a.M
	for _, st := range s.rk {
		if st == nil {
			continue
		}
		// The snapshots repeat the local total and earlier entries by
		// pointer; each distinct matrix gets one pack.
		packs := make(map[*mat.Matrix]mat.PackedA)
		pack := func(x *mat.Matrix) mat.PackedA {
			if x == nil {
				return mat.PackedA{}
			}
			p, ok := packs[x]
			if !ok {
				p = mat.NewPackedA(1, x)
				packs[x] = p
			}
			return p
		}
		st.localTotalSPack = pack(st.localTotalS)
		for k := range st.rounds {
			rd := &st.rounds[k]
			rd.preSPack, rd.accSPack = pack(rd.preS), pack(rd.accS)
		}
		if st.piS != nil {
			st.piSLeftPack = mat.NewPackedA(1, st.piS.View(0, 0, 2*m, m))
		}
	}
	last := a.N - 1
	s.negDiagPack = mat.NewPackedA(-1, a.Diag[last])
	if a.Lower[last] != nil {
		s.negLowerPack = mat.NewPackedA(-1, a.Lower[last])
	}
}

// storedBytes totals the factor-phase state retained across solves: each
// element's share of its rank's store (its two operands, each a pack or a
// matrix), every distinct stored scan matrix with its pack,
// the exclusive prefix's left-half pack, the negated last-row packs, and
// the reduced-system factorization. The Kogge-Stone snapshots share
// matrices and packs by pointer, so each is counted once.
func (s *ARD) storedBytes() int64 {
	m := s.a.M
	total := luBytes(m) + packBytes(s.negDiagPack) + packBytes(s.negLowerPack)
	for _, st := range s.rk {
		if st == nil {
			continue
		}
		total += int64(len(st.elems)) * 8 * int64(elementFloats(m))
		seen := make(map[*mat.Matrix]bool)
		add := func(x *mat.Matrix, p mat.PackedA) {
			if x != nil && !seen[x] {
				seen[x] = true
				total += matBytes(x) + packBytes(p)
			}
		}
		add(st.localTotalS, st.localTotalSPack)
		for _, rd := range st.rounds {
			add(rd.preS, rd.preSPack)
			add(rd.accS, rd.accSPack)
		}
		add(st.piS, mat.PackedA{}) // its full pack, if any, came with a snapshot
		total += packBytes(st.piSLeftPack)
	}
	return total
}

func (s *ARD) factorRank(c *comm.Comm) (int64, error) {
	a := s.a
	r, p := c.Rank(), c.Size()
	m := a.M
	lo, hi := PartRange(a.N, p, r)
	first := max(lo, 1)
	st := &ardRankState{lo: lo, hi: hi, first: first}
	s.rk[r] = st
	var fc flopCounter

	// Local elements and the matrix-only local scan total. Each element is
	// built in a scratch arena reset per element and kept in the rank's
	// element store; the local scan composes on the kept pack where there
	// is one, and on the scratch matrix otherwise. The running total
	// alternates between two scratch matrices of the rank's arena (the
	// next phase's Reset recycles them) and is cloned out at the end.
	ne := max(hi-first, 0)
	store, build := newElementStore(m, ne), mat.NewWorkspace()
	build.Reserve(4*m*m, m) // buildElement's M x 3M buffer and U's LU
	st.elems = make([]element, 0, ne)
	ws := s.slots[r].ws
	sbuf := [2]*mat.Matrix{ws.GetNoClear(2*m, 2*m), ws.GetNoClear(2*m, 2*m)}
	bs := ws.Floats(mat.PackBLen(2*m, 2*m))
	var total *mat.Matrix
	var buildErr error
	for i := first; i < hi; i++ {
		build.Reset()
		e, err := buildElement(build, a, i)
		if err != nil {
			buildErr = err
			break
		}
		fc.add(buildFlops(a, i-1))
		kept := e.keep(store)
		st.elems = append(st.elems, kept)
		if total != nil {
			fc.add(composeFlops(m))
		}
		dst := sbuf[len(st.elems)&1]
		composeT(ws, dst, e.t.a, kept.t.p, total, bs)
		total = dst
	}
	if total != nil {
		st.localTotalS = total.Clone()
	}
	if !agree(c, buildErr) {
		return fc.n, buildErr
	}

	// Cross-rank exclusive scan on S, recording the entry values of every
	// Kogge-Stone round so Solve can replay the same combines on the
	// vector halves.
	accS := st.localTotalS
	var preS *mat.Matrix
	for dist := 1; dist < p; dist <<= 1 {
		st.rounds = append(st.rounds, ardRound{dist: dist, preS: preS, accS: accS})
		if r+dist < p {
			c.Send(r+dist, tagARDFactorScan, encodeSMat(accS))
		}
		if r-dist >= 0 {
			recvS := decodeSMat(c.Recv(r-dist, tagARDFactorScan))
			if recvS != nil {
				if preS != nil {
					fc.add(gemmFlops(2*m, 2*m, 2*m))
				}
				preS = composeS(recvS, preS)
				if accS != nil {
					fc.add(gemmFlops(2*m, 2*m, 2*m))
				}
				accS = composeS(recvS, accS)
			}
		}
	}
	st.piS = preS

	// Reduced system on the last rank: factor it once.
	var err error
	if r == p-1 {
		totalS := composeS(st.piS, st.localTotalS)
		if st.piS != nil {
			fc.add(gemmFlops(2*m, 2*m, 2*m))
		}
		s.growth = mat.NormFrob(totalS)
		rm := reducedMatrixWS(ws, a, totalS)
		fc.add(2 * gemmFlops(m, m, m))
		if s.luRm, err = mat.Factor(rm); err == nil {
			fc.add(luFlops(m))
		}
	}
	agree(c, err) // every rank joins the barrier; the last rank reports a failure
	return fc.n, err
}

// solve is the per-right-hand-side O(M^2 R (N/P + log P)) phase. Once a
// warm-up solve has grown the per-rank arenas and the comm layer's buffer
// pools to their high-water marks, it performs no heap allocation.
func (s *ARD) solve(x, b *mat.Matrix) error {
	a := s.a
	if a.N == 1 {
		s.luRm.SolveTo(x, b)
		s.solveStats = oneRank(luSolveFlops(a.M, b.Cols))
		return nil
	}
	if err := s.drive(x, b); err != nil {
		return err
	}
	s.solveStats.PrefixGrowth = s.growth
	return nil
}

func (s *ARD) solveRank(c *comm.Comm, x, b *mat.Matrix) (int64, error) {
	a := s.a
	r, p := c.Rank(), c.Size()
	n, m, rhs := a.N, a.M, b.Cols
	st := s.rk[r]
	ws := s.slots[r].ws
	var fc flopCounter

	// One panel-pack scratch serves every packed product of this solve:
	// the largest right-hand operand anywhere in the phase is a 2M x R
	// panel, and MulAddPacked overwrites the scratch per call.
	bs := ws.Floats(mat.PackBLen(2*m, rhs))

	// Fold the chunk's elements into the local total H, h := T*h + F, from
	// the zero state: each step reads its right-hand block in place (one
	// header, re-pointed per element) through the stored operands, and the
	// fold alternates between two states.
	hs := newStates(ws, m, rhs)
	bi := wsBlockOf(ws, b, m, 0)
	var h state
	for k := range st.elems {
		e := &st.elems[k]
		e.step(hs[k&1], h, b.ViewInto(bi, (e.idx-1)*m, 0, m, rhs), bs)
		fc.add(stepFlops(m, rhs, h.all == nil))
		h = hs[k&1]
	}
	localTotalH := h.all

	// Replay the Kogge-Stone rounds on the vector halves only. Each round
	// moves its whole panel in one pooled message (packHMat builds the
	// payload in a comm buffer; received buffers go back to the pool once
	// decoded).
	var preH *mat.Matrix
	accH := localTotalH
	for _, round := range st.rounds {
		if r+round.dist < p {
			c.SendOwned(r+round.dist, tagARDSolveScan, packHMat(c, accH))
		}
		if r-round.dist < 0 {
			continue
		}
		payload := c.Recv(r-round.dist, tagARDSolveScan)
		recvH := decodeHMatWS(ws, payload)
		c.Release(payload)
		if recvH == nil {
			continue
		}
		if round.preS == nil {
			preH = recvH
		} else {
			fc.add(gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
			preH = composeHWS(ws, recvH, round.preS, round.preSPack, preH, bs)
		}
		if round.accS == nil {
			accH = recvH
		} else {
			fc.add(gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
			accH = composeHWS(ws, recvH, round.accS, round.accSPack, accH, bs)
		}
	}

	// The reduced right-hand side and x0 at the last rank, the broadcast,
	// and the local recovery.
	x0 := ws.GetNoClear(m, rhs)
	if r == p-1 {
		totalH := localTotalH
		if preH != nil {
			fc.add(gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
			totalH = composeHWS(ws, preH, st.localTotalS, st.localTotalSPack, localTotalH, bs)
		}
		rrhs := reducedRHS(ws, a, totalH, wsBlockOf(ws, b, m, n-1), s.negDiagPack, s.negLowerPack, bs)
		fc.add(2 * gemmFlops(m, m, rhs))
		s.luRm.SolveTo(x0, rrhs)
		fc.add(luSolveFlops(m, rhs))
	}
	c.BcastMatrixInto(p-1, x0)
	recoverChunk(ws, &fc, x, b, x0, st.lo, st.hi, st.piS, st.piSLeftPack, preH, st.elems, bs)
	return fc.n, nil
}
