package core

import (
	"errors"
	"fmt"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// Spike implements the SPIKE / partition method (Sameh's algorithm), the
// numerically stable factor/solve-split alternative to recursive
// doubling, included as the strongest baseline for the comparison suite:
//
//   - Factor (once per matrix): each rank block-LU-factors its local
//     chunk A_r, computes the left/right "spikes" V_r = A_r^{-1} B_r and
//     W_r = A_r^{-1} C_r (the couplings to the halo unknowns), and the
//     root assembles and factors the (P-1)-row reduced block tridiagonal
//     system of size 2M over the partition-interface unknowns. Cost
//     O(M^3 N/P) per rank + O(M^3 P) at the root.
//
//   - Solve (per right-hand side): a local O(M^2 R N/P) chunk solve, a
//     gather of the 2M-row interface data, an O(M^2 R P) reduced solve at
//     the root, a scatter, and a local O(M^2 R N/P) spike update.
//
// Unlike RD/ARD it performs no transfer-matrix products, so its accuracy
// matches block Thomas on every family (at the price of an O(P) reduced
// phase instead of O(log P), in this non-recursive variant).
//
// Requirements: every rank must own at least two block rows (N >= 2*P),
// and the chunk diagonal blocks must admit a block LU (guaranteed for
// block diagonally dominant systems).
type Spike struct {
	base
	rk      []*spikeRankState
	reduced *Thomas // factored reduced system, held by the root
}

// ErrChunkTooSmall is returned when a rank owns fewer than two block rows.
var ErrChunkTooSmall = errors.New("core: spike requires at least 2 block rows per rank (N >= 2P)")

type spikeRankState struct {
	lo, hi int
	local  *Thomas     // factorization of the chunk A_r
	v      *mat.Matrix // left spike, (n_r*M) x M, nil on rank 0
	w      *mat.Matrix // right spike, (n_r*M) x M, nil on rank P-1
}

// NewSpike returns a SPIKE solver for a over cfg's world.
func NewSpike(a *blocktri.Matrix, cfg Config) *Spike {
	s := &Spike{}
	s.init(a, cfg.world(), s)
	return s
}

// Name implements Solver.
func (s *Spike) Name() string { return "spike" }

// Message tags for the SPIKE phases.
const (
	tagSpikeFactorGather = 210 + iota
	tagSpikeSolveGather
	tagSpikeSolveScatter
)

// chunkMatrix extracts the local block tridiagonal chunk A_r (rows
// [lo, hi)) with the halo couplings removed.
func chunkMatrix(a *blocktri.Matrix, lo, hi int) *blocktri.Matrix {
	n := hi - lo
	c := &blocktri.Matrix{
		N:     n,
		M:     a.M,
		Lower: make([]*mat.Matrix, n),
		Diag:  make([]*mat.Matrix, n),
		Upper: make([]*mat.Matrix, n),
	}
	for i := 0; i < n; i++ {
		c.Diag[i] = a.Diag[lo+i]
		if i > 0 {
			c.Lower[i] = a.Lower[lo+i]
		}
		if i < n-1 {
			c.Upper[i] = a.Upper[lo+i]
		}
	}
	return c
}

// factor factors every chunk with its spikes and the root's reduced
// system.
func (s *Spike) factor() error {
	a, p := s.a, s.world.P
	if p == 1 {
		// Degenerate single-rank case: SPIKE is exactly block Thomas.
		th := NewThomas(a)
		if err := th.Factor(); err != nil {
			return err
		}
		s.rk = []*spikeRankState{{lo: 0, hi: a.N, local: th}}
		s.factorStats = th.FactorStats()
		return nil
	}
	if a.N < 2*p {
		return fmt.Errorf("%w: N=%d P=%d", ErrChunkTooSmall, a.N, p)
	}
	s.rk = make([]*spikeRankState, p)
	if err := s.drive(nil, nil); err != nil {
		s.rk = nil
		return err
	}
	// The retained state: each rank's local block LU and its two spikes,
	// and the root's factored reduced system.
	stored := s.reduced.FactorStats().StoredBytes
	for _, st := range s.rk {
		stored += st.local.FactorStats().StoredBytes + matBytes(st.v) + matBytes(st.w)
	}
	s.factorStats.StoredBytes = stored
	return nil
}

func (s *Spike) factorRank(c *comm.Comm) (int64, error) {
	a := s.a
	r, p := c.Rank(), c.Size()
	m := a.M
	lo, hi := PartRange(a.N, p, r)
	nr := hi - lo
	st := &spikeRankState{lo: lo, hi: hi}
	s.rk[r] = st
	var fc flopCounter

	// Local factorization of the chunk.
	st.local = NewThomas(chunkMatrix(a, lo, hi))
	err := st.local.Factor()
	if err == nil {
		fc.add(st.local.FactorStats().Flops)
		// Spikes: V = A_r^{-1} [L_lo; 0; ...], W = A_r^{-1} [...; 0; U_{hi-1}].
		if r > 0 {
			rhs := mat.New(nr*m, m)
			rhs.View(0, 0, m, m).CopyFrom(a.Lower[lo])
			st.v, err = st.local.Solve(rhs)
			fc.add(st.local.Stats().Flops)
		}
	}
	if err == nil && r < p-1 {
		rhs := mat.New(nr*m, m)
		rhs.View((nr-1)*m, 0, m, m).CopyFrom(a.Upper[hi-1])
		st.w, err = st.local.Solve(rhs)
		fc.add(st.local.Stats().Flops)
	}
	if err != nil {
		err = fmt.Errorf("core: spike rank %d: %w", r, err)
	}
	if !agree(c, err) {
		return fc.n, err
	}

	// Gather the spike corner blocks at the root and assemble the reduced
	// interface system: unknowns z_r = [x_{hi_r - 1} ; x_{lo_{r+1}}] for
	// r = 0..P-2, block tridiagonal with 2M x 2M blocks.
	zero := mat.New(m, m)
	corner := func(sp *mat.Matrix, top bool) *mat.Matrix {
		if sp == nil {
			return zero
		}
		if top {
			return sp.View(0, 0, m, m)
		}
		return sp.View((nr-1)*m, 0, m, m)
	}
	payload := comm.EncodeMatrices(
		corner(st.v, true), corner(st.v, false),
		corner(st.w, true), corner(st.w, false),
	)
	root := 0
	gathered := c.Gather(root, payload)
	if r == root {
		var reduced *blocktri.Matrix
		if reduced, err = s.assembleReduced(gathered); err == nil {
			s.reduced = NewThomas(reduced)
			if err = s.reduced.Factor(); err == nil {
				fc.add(s.reduced.FactorStats().Flops)
			}
		}
		if err != nil {
			err = fmt.Errorf("core: spike reduced system: %w", err)
		}
	}
	agree(c, err)
	return fc.n, err
}

// assembleReduced builds the (P-1)-row reduced block tridiagonal system
// from the gathered per-rank corner blocks [Vtop, Vbot, Wtop, Wbot].
func (s *Spike) assembleReduced(gathered [][]float64) (*blocktri.Matrix, error) {
	m := s.a.M
	p := s.world.P
	type corners struct{ vt, vb, wt, wb *mat.Matrix }
	cs := make([]corners, p)
	for r := 0; r < p; r++ {
		ms := comm.DecodeMatrices(gathered[r])
		if len(ms) != 4 {
			return nil, fmt.Errorf("rank %d sent %d corner blocks", r, len(ms))
		}
		cs[r] = corners{vt: ms[0], vb: ms[1], wt: ms[2], wb: ms[3]}
	}
	red := blocktri.New(p-1, 2*m)
	for r := 0; r < p-1; r++ {
		d := red.Diag[r]
		d.SetIdentity()
		// Bottom-row equation of rank r: b_r + Vbot_r b_{r-1} + Wbot_r t_{r+1} = g.
		d.View(0, m, m, m).CopyFrom(cs[r].wb)
		// Top-row equation of rank r+1: t_{r+1} + Vtop_{r+1} b_r + Wtop_{r+1} t_{r+2} = g.
		d.View(m, 0, m, m).CopyFrom(cs[r+1].vt)
		if r > 0 {
			red.Lower[r].View(0, 0, m, m).CopyFrom(cs[r].vb)
		}
		if r < p-2 {
			red.Upper[r].View(m, m, m, m).CopyFrom(cs[r+1].wt)
		}
	}
	return red, nil
}

// solve runs the chunk solves, the root's reduced solve and the spike
// updates.
func (s *Spike) solve(x, b *mat.Matrix) error {
	if s.world.P > 1 {
		return s.drive(x, b)
	}
	local := s.rk[0].local
	if err := local.SolveTo(x, b); err != nil {
		return err
	}
	s.solveStats = local.Stats()
	return nil
}

func (s *Spike) solveRank(c *comm.Comm, x, b *mat.Matrix) (int64, error) {
	a := s.a
	r, p := c.Rank(), c.Size()
	m, rhs := a.M, b.Cols
	st := s.rk[r]
	nr := st.hi - st.lo
	ws := s.slots[r].ws
	var fc flopCounter

	// Local chunk solve: X0 = A_r^{-1} b_r, into an arena buffer.
	x0 := ws.GetNoClear(nr*m, rhs)
	err := st.local.SolveTo(x0, ws.View(b, st.lo*m, 0, nr*m, rhs))
	if err == nil {
		fc.add(st.local.Stats().Flops)
	}
	if !agree(c, err) {
		return fc.n, err
	}

	// Gather the interface rows [x0 top ; x0 bottom] at the root.
	root := 0
	payload := comm.EncodeMatrices(
		ws.View(x0, 0, 0, m, rhs),
		ws.View(x0, (nr-1)*m, 0, m, rhs),
	)
	gathered := c.Gather(root, payload)

	// Root: reduced solve, then scatter each rank its halo values
	// (x_{lo-1} = b_{r-1} and x_{hi} = t_{r+1}).
	if r == root {
		zrhs := ws.GetNoClear((p-1)*2*m, rhs) // every row overwritten below
		type gf struct{ top, bot *mat.Matrix }
		gs := make([]gf, p)
		for q := 0; q < p; q++ {
			ms := comm.DecodeMatrices(gathered[q])
			gs[q] = gf{top: ms[0], bot: ms[1]}
		}
		for q := 0; q < p-1; q++ {
			ws.View(zrhs, q*2*m, 0, m, rhs).CopyFrom(gs[q].bot)
			ws.View(zrhs, q*2*m+m, 0, m, rhs).CopyFrom(gs[q+1].top)
		}
		z := ws.GetNoClear((p-1)*2*m, rhs)
		if err = s.reduced.SolveTo(z, zrhs); err == nil {
			fc.add(s.reduced.Stats().Flops)
			zero := ws.Get(m, rhs)
			for q := 0; q < p; q++ {
				// Halo for rank q: left = b_{q-1} (z[q-1][0:M]), right = t_{q+1} (z[q][M:2M]).
				left, right := zero, zero
				if q > 0 {
					left = ws.View(z, (q-1)*2*m, 0, m, rhs)
				}
				if q < p-1 {
					right = ws.View(z, q*2*m+m, 0, m, rhs)
				}
				c.Send(q, tagSpikeSolveScatter, comm.EncodeMatrices(left, right))
			}
		}
	}
	if !agree(c, err) {
		return fc.n, err
	}
	halo := comm.DecodeMatrices(c.Recv(root, tagSpikeSolveScatter))
	left, right := halo[0], halo[1]

	// Local update: X = X0 - V*left - W*right, written into the global x.
	out := ws.View(x, st.lo*m, 0, nr*m, rhs)
	out.CopyFrom(x0)
	if st.v != nil {
		mat.MulSub(out, st.v, left)
		fc.add(gemmFlops(nr*m, m, rhs))
	}
	if st.w != nil {
		mat.MulSub(out, st.w, right)
		fc.add(gemmFlops(nr*m, m, rhs))
	}
	return fc.n, nil
}
