package core

import (
	"fmt"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// PCR is distributed parallel cyclic reduction: every block row stays
// active through ceil(log2 N) levels; at level l (distance d = 2^l) row i
// eliminates its couplings to rows i-d and i+d, doubling the coupling
// distance, until every row is decoupled and solves an independent M x M
// system. PCR is the GPU-era classic for this problem and the natural
// O(log N)-span comparator for recursive doubling:
//
//   - work O(M^3 N log N) — a log N factor MORE than Thomas/RD's local
//     phase, traded for a fully regular, synchronization-light structure;
//   - numerically stable on block diagonally dominant systems (no
//     transfer-matrix products);
//   - factor/solve split: the elimination coefficients alpha_i, beta_i
//     and the final diagonal factorizations depend only on the matrix, so
//     repeated solves cost O(M^2 N R log N) plus halo exchanges of
//     right-hand-side rows only.
//
// Rows are distributed contiguously; each level exchanges halo rows of
// width min(d, chunk) with the ranks that own rows i±d.
type PCR struct {
	a     *blocktri.Matrix
	world *comm.World

	factored    bool
	rk          []*pcrRankState
	ws          []*mat.Workspace // per-rank solve arenas
	factorStats SolveStats
	solveStats  SolveStats
}

// pcrLevel holds one level's elimination coefficients for a rank's rows.
type pcrLevel struct {
	d     int
	alpha []*mat.Matrix // alpha[i-lo] = L_i D_{i-d}^{-1}, nil when i-d < 0
	beta  []*mat.Matrix // beta[i-lo]  = U_i D_{i+d}^{-1}, nil when i+d >= N
}

type pcrRankState struct {
	lo, hi int
	levels []pcrLevel
	luD    []*mat.LU // final decoupled diagonal factorizations
}

// NewPCR returns a distributed parallel cyclic reduction solver for a
// over cfg's world.
func NewPCR(a *blocktri.Matrix, cfg Config) *PCR {
	w := cfg.world()
	ws := make([]*mat.Workspace, w.P)
	for i := range ws {
		ws[i] = mat.NewWorkspace()
	}
	return &PCR{a: a, world: w, ws: ws}
}

// Name implements Solver.
func (s *PCR) Name() string { return "parallel-cyclic-reduction" }

// Factored implements Factored.
func (s *PCR) Factored() bool { return s.factored }

// FactorStats returns the cost of the Factor call.
func (s *PCR) FactorStats() SolveStats { return s.factorStats }

// Stats returns the cost of the most recent Solve call.
func (s *PCR) Stats() SolveStats { return s.solveStats }

const (
	tagPCRFactorHalo = 220 + iota
	tagPCRSolveHalo
)

// pcrOwner returns the rank owning block row j under PartRange.
func pcrOwner(n, p, j int) int {
	// PartRange(n, p, r) = [r*n/p, (r+1)*n/p): invert by scanning from the
	// float estimate (at most off by one).
	r := j * p / n
	for {
		lo, hi := PartRange(n, p, r)
		if j < lo {
			r--
		} else if j >= hi {
			r++
		} else {
			return r
		}
	}
}

// haloPlan computes, for distance d, which of this rank's rows each peer
// needs (peers need rows j with j+d or j-d inside their range) and which
// remote rows this rank needs.
type haloPlan struct {
	// sendTo[q] lists this rank's row indices that rank q needs.
	sendTo map[int][]int
	// need lists the remote row indices this rank needs, grouped by owner.
	need map[int][]int
}

func makeHaloPlan(n, p, rank, d int) haloPlan {
	lo, hi := PartRange(n, p, rank)
	plan := haloPlan{sendTo: map[int][]int{}, need: map[int][]int{}}
	addNeed := func(j int) {
		if j < 0 || j >= n {
			return
		}
		if j >= lo && j < hi {
			return // local
		}
		owner := pcrOwner(n, p, j)
		plan.need[owner] = append(plan.need[owner], j)
	}
	for i := lo; i < hi; i++ {
		addNeed(i - d)
		addNeed(i + d)
	}
	// Symmetric computation for what others need from me: row j of mine is
	// needed by the owner of j+d (for their i = j+d) and of j-d.
	addSend := func(j, neighbor int) {
		if neighbor < 0 || neighbor >= n {
			return
		}
		owner := pcrOwner(n, p, neighbor)
		if owner == rank {
			return
		}
		plan.sendTo[owner] = append(plan.sendTo[owner], j)
	}
	for j := lo; j < hi; j++ {
		addSend(j, j+d)
		addSend(j, j-d)
	}
	// Deduplicate (a row can be needed by the same owner for both offsets).
	for q, rows := range plan.sendTo {
		plan.sendTo[q] = dedupSorted(rows)
	}
	for q, rows := range plan.need {
		plan.need[q] = dedupSorted(rows)
	}
	return plan
}

func dedupSorted(rows []int) []int {
	if len(rows) == 0 {
		return rows
	}
	// rows are generated in ascending sweeps; insertion sort is fine at
	// halo sizes.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	out := rows[:1]
	for _, r := range rows[1:] {
		if r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}

// pcrRow is the per-row working state during factorization.
type pcrRow struct {
	l, d, u *mat.Matrix // current couplings (nil = absent) and diagonal
	invD    *mat.Matrix // inverse of d, recomputed per level
}

// Factor implements Factored.
func (s *PCR) Factor() error {
	if s.factored {
		return nil
	}
	start := time.Now()
	w := s.world
	w.ResetTotals()
	s.rk = make([]*pcrRankState, w.P)
	perRank := make([]int64, w.P)
	var es errSlot
	runErr := w.Run(func(c *comm.Comm) {
		perRank[c.Rank()] = s.factorRank(c, &es)
	})
	if err := es.get(); err != nil {
		s.rk = nil
		return err
	}
	if runErr != nil {
		s.rk = nil
		return runErr
	}
	s.factored = true
	s.factorStats = SolveStats{
		Comm:        w.TotalStats(),
		MaxSimComm:  w.MaxSimCommTime(),
		Wall:        time.Since(start),
		StoredBytes: s.storedBytes(),
	}
	s.factorStats.mergeRankFlops(perRank)
	return nil
}

// storedBytes totals the retained factor state: the per-level elimination
// coefficients and the final diagonal factorizations.
func (s *PCR) storedBytes() int64 {
	var total int64
	for _, st := range s.rk {
		if st == nil {
			continue
		}
		for _, lev := range st.levels {
			for k := range lev.alpha {
				total += matBytes(lev.alpha[k]) + matBytes(lev.beta[k])
			}
		}
		total += int64(len(st.luD)) * luBytes(s.a.M)
	}
	return total
}

func (s *PCR) factorRank(c *comm.Comm, es *errSlot) int64 {
	a := s.a
	r, p := c.Rank(), c.Size()
	n, m := a.N, a.M
	lo, hi := PartRange(n, p, r)
	st := &pcrRankState{lo: lo, hi: hi}
	s.rk[r] = st
	var fc flopCounter

	// Working copies of the owned rows.
	rows := make([]pcrRow, hi-lo)
	for i := lo; i < hi; i++ {
		k := i - lo
		rows[k].d = a.Diag[i].Clone()
		if a.Lower[i] != nil {
			rows[k].l = a.Lower[i].Clone()
		}
		if a.Upper[i] != nil {
			rows[k].u = a.Upper[i].Clone()
		}
	}

	encodeRow := func(row pcrRow) []float64 {
		// [flagL, flagU] then the present matrices in order L, U, D, invD.
		flags := []float64{0, 0}
		ms := make([]*mat.Matrix, 0, 4)
		if row.l != nil {
			flags[0] = 1
			ms = append(ms, row.l)
		}
		if row.u != nil {
			flags[1] = 1
			ms = append(ms, row.u)
		}
		ms = append(ms, row.d, row.invD)
		return append(flags, comm.EncodeMatrices(ms...)...)
	}
	decodeRow := func(payload []float64) pcrRow {
		var row pcrRow
		ms := comm.DecodeMatrices(payload[2:])
		k := 0
		if payload[0] != 0 {
			row.l = ms[k]
			k++
		}
		if payload[1] != 0 {
			row.u = ms[k]
			k++
		}
		row.d = ms[k]
		row.invD = ms[k+1]
		return row
	}

	failed := false
	for d := 1; d < n; d <<= 1 {
		// Invert every owned diagonal for this level.
		levelOK := true
		for k := range rows {
			lu, err := mat.Factor(rows[k].d)
			if err != nil {
				es.set(fmt.Errorf("core: pcr level d=%d row %d: %w", d, lo+k, err))
				levelOK = false
				break
			}
			rows[k].invD = lu.Inverse()
			fc.add(luFlops(m) + luSolveFlops(m, m))
		}
		if !agreeOK(c, levelOK) {
			failed = true
			break
		}

		// Halo exchange: ship (L, U, D, invD) of the rows peers need.
		plan := makeHaloPlan(n, p, r, d)
		for q, idxs := range plan.sendTo {
			payload := []float64{float64(len(idxs))}
			for _, j := range idxs {
				rp := encodeRow(rows[j-lo])
				payload = append(payload, float64(j), float64(len(rp)))
				payload = append(payload, rp...)
			}
			c.Send(q, tagPCRFactorHalo, payload)
		}
		halo := map[int]pcrRow{}
		for q := range plan.need {
			payload := c.Recv(q, tagPCRFactorHalo)
			cnt := int(payload[0])
			pos := 1
			for t := 0; t < cnt; t++ {
				j := int(payload[pos])
				plen := int(payload[pos+1])
				halo[j] = decodeRow(payload[pos+2 : pos+2+plen])
				pos += 2 + plen
			}
			// decodeRow copies (DecodeMatrices -> NewFromSlice), so the
			// pooled buffer can recycle immediately — the solve-path halo
			// exchange below already did; this one leaked.
			c.Release(payload)
		}
		rowAt := func(j int) (pcrRow, bool) {
			if j < lo || j >= hi {
				row, ok := halo[j]
				return row, ok
			}
			return rows[j-lo], true
		}

		// Simultaneous update: read old values, write into fresh rows.
		next := make([]pcrRow, len(rows))
		st.levels = append(st.levels, pcrLevel{
			d:     d,
			alpha: make([]*mat.Matrix, len(rows)),
			beta:  make([]*mat.Matrix, len(rows)),
		})
		lev := &st.levels[len(st.levels)-1]
		for k := range rows {
			i := lo + k
			cur := rows[k]
			nd := cur.d.Clone()
			var nl, nu *mat.Matrix
			if cur.l != nil {
				prev, ok := rowAt(i - d)
				if !ok {
					//lint:ignore panicpolicy partition invariant, not an input condition: the halo exchange delivered this row one level earlier.
					panic(fmt.Sprintf("core: pcr missing halo row %d at d=%d", i-d, d))
				}
				alpha := mat.New(m, m)
				mat.Mul(alpha, cur.l, prev.invD)
				fc.add(gemmFlops(m, m, m))
				lev.alpha[k] = alpha
				if prev.u != nil {
					mat.MulSub(nd, alpha, prev.u)
					fc.add(gemmFlops(m, m, m))
				}
				if prev.l != nil {
					nl = mat.New(m, m)
					mat.MulSub(nl, alpha, prev.l)
					fc.add(gemmFlops(m, m, m))
				}
			}
			if cur.u != nil {
				nxt, ok := rowAt(i + d)
				if !ok {
					//lint:ignore panicpolicy partition invariant, not an input condition: the halo exchange delivered this row one level earlier.
					panic(fmt.Sprintf("core: pcr missing halo row %d at d=%d", i+d, d))
				}
				beta := mat.New(m, m)
				mat.Mul(beta, cur.u, nxt.invD)
				fc.add(gemmFlops(m, m, m))
				lev.beta[k] = beta
				if nxt.l != nil {
					mat.MulSub(nd, beta, nxt.l)
					fc.add(gemmFlops(m, m, m))
				}
				if nxt.u != nil {
					nu = mat.New(m, m)
					mat.MulSub(nu, beta, nxt.u)
					fc.add(gemmFlops(m, m, m))
				}
			}
			next[k] = pcrRow{l: nl, d: nd, u: nu}
		}
		rows = next
	}
	if failed {
		return fc.n
	}

	// Final decoupled diagonals.
	st.luD = make([]*mat.LU, len(rows))
	finalOK := true
	for k := range rows {
		lu, err := mat.Factor(rows[k].d)
		if err != nil {
			es.set(fmt.Errorf("core: pcr final row %d: %w", lo+k, err))
			finalOK = false
			break
		}
		fc.add(luFlops(m))
		st.luD[k] = lu
	}
	agreeOK(c, finalOK)
	return fc.n
}

// Solve implements Solver.
func (s *PCR) Solve(b *mat.Matrix) (*mat.Matrix, error) {
	if err := checkRHS(s.a, b); err != nil {
		return nil, err
	}
	if err := s.Factor(); err != nil {
		return nil, err
	}
	start := time.Now()
	w := s.world
	w.ResetTotals()
	//lint:ignore hotalloc Solve returns a caller-owned result matrix
	x := mat.New(s.a.N*s.a.M, b.Cols)
	perRank := make([]int64, w.P)
	if err := w.Run(func(c *comm.Comm) {
		perRank[c.Rank()] = s.solveRank(c, b, x)
	}); err != nil {
		return nil, err
	}
	s.solveStats = SolveStats{
		Comm:       w.TotalStats(),
		MaxSimComm: w.MaxSimCommTime(),
		Wall:       time.Since(start),
	}
	s.solveStats.mergeRankFlops(perRank)
	return x, nil
}

func (s *PCR) solveRank(c *comm.Comm, b, x *mat.Matrix) int64 {
	a := s.a
	r, p := c.Rank(), c.Size()
	n, m, rhs := a.N, a.M, b.Cols
	st := s.rk[r]
	lo, hi := st.lo, st.hi
	ws := s.ws[r]
	ws.Reset()
	var fc flopCounter

	// Working copies of the owned right-hand-side rows, arena-backed.
	rows := make([]*mat.Matrix, hi-lo)
	for i := lo; i < hi; i++ {
		rows[i-lo] = ws.CloneOf(wsBlockOf(ws, b, m, i))
	}

	for _, lev := range st.levels {
		d := lev.d
		plan := makeHaloPlan(n, p, r, d)
		for q, idxs := range plan.sendTo {
			payload := []float64{float64(len(idxs))}
			for _, j := range idxs {
				enc := comm.EncodeMatrix(rows[j-lo])
				payload = append(payload, float64(j), float64(len(enc)))
				payload = append(payload, enc...)
			}
			c.Send(q, tagPCRSolveHalo, payload)
		}
		halo := map[int]*mat.Matrix{}
		for q := range plan.need {
			payload := c.Recv(q, tagPCRSolveHalo)
			cnt := int(payload[0])
			pos := 1
			for t := 0; t < cnt; t++ {
				j := int(payload[pos])
				plen := int(payload[pos+1])
				hm := ws.GetNoClear(m, rhs)
				comm.DecodeMatrixInto(hm, payload[pos+2:pos+2+plen])
				halo[j] = hm
				pos += 2 + plen
			}
			c.Release(payload)
		}
		bAt := func(j int) *mat.Matrix {
			if j >= lo && j < hi {
				return rows[j-lo]
			}
			return halo[j]
		}
		next := make([]*mat.Matrix, len(rows))
		for k := range rows {
			i := lo + k
			nb := ws.CloneOf(rows[k])
			if al := lev.alpha[k]; al != nil {
				mat.MulSub(nb, al, bAt(i-d))
				fc.add(gemmFlops(m, m, rhs))
			}
			if be := lev.beta[k]; be != nil {
				mat.MulSub(nb, be, bAt(i+d))
				fc.add(gemmFlops(m, m, rhs))
			}
			next[k] = nb
		}
		rows = next
	}

	// Decoupled solves straight into the output.
	for k := range rows {
		out := wsBlockOf(ws, x, m, lo+k)
		st.luD[k].SolveTo(out, rows[k])
		fc.add(luSolveFlops(m, rhs))
	}
	return fc.n
}
