package core

import (
	"sync"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
	"blocktri/internal/prefix"
)

// Message tags used by the solvers (user range, below the collectives'
// reserved range).
const (
	tagRDScan = 200 + iota
	tagARDFactorScan
	tagARDSolveScan
)

// Config carries the distributed-execution settings shared by RD and ARD.
type Config struct {
	// World is the communicator to run on; nil means a fresh single-rank
	// world (sequential execution through the same code path).
	World *comm.World
	// Schedule selects the cross-rank scan algorithm (default KoggeStone,
	// the recursive doubling schedule). RD supports all schedules; ARD
	// supports KoggeStone and Chain (its solve phase replays the factor
	// phase's schedule, and Brent-Kung's down-sweep is not replayable).
	Schedule prefix.Schedule
}

func (cfg Config) world() *comm.World {
	if cfg.World == nil {
		return comm.NewWorld(1)
	}
	return cfg.World
}

// RD is the classic recursive doubling solver. Every Solve call rebuilds
// the transfer matrices, re-runs the local O(M^3 N/P) scan and the
// O(M^3 log P) cross-rank scan: nothing is reused between calls. This is
// the algorithm the paper identifies as sub-optimal for repeated solves
// with the same matrix.
type RD struct {
	a     *blocktri.Matrix
	world *comm.World
	sched prefix.Schedule
	stats SolveStats
	ws    []*mat.Workspace // per-rank solve arenas, reused across Solve calls
}

// NewRD returns a recursive doubling solver for a over cfg's world.
func NewRD(a *blocktri.Matrix, cfg Config) *RD {
	w := cfg.world()
	ws := make([]*mat.Workspace, w.P)
	for i := range ws {
		ws[i] = mat.NewWorkspace()
	}
	return &RD{a: a, world: w, sched: cfg.Schedule, ws: ws}
}

// Name implements Solver.
func (rd *RD) Name() string { return "recursive-doubling" }

// Stats returns the cost of the most recent Solve call. Communication
// counters are owned by the solver: Solve resets the world's totals.
func (rd *RD) Stats() SolveStats { return rd.stats }

// errSlot collects the first error raised by any rank.
type errSlot struct {
	mu  sync.Mutex
	err error
}

func (e *errSlot) set(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

func (e *errSlot) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// agreeOK reports whether every rank passed ok=true; it is the collective
// error barrier that lets all ranks abandon a solve together instead of
// deadlocking when one rank fails.
func agreeOK(c *comm.Comm, ok bool) bool {
	flag := 0.0
	if !ok {
		flag = 1
	}
	res := c.Allreduce([]float64{flag}, comm.OpMax)
	return res[0] == 0
}

// Solve implements Solver.
func (rd *RD) Solve(b *mat.Matrix) (*mat.Matrix, error) {
	if err := checkRHS(rd.a, b); err != nil {
		return nil, err
	}
	start := time.Now()
	a := rd.a
	if a.N == 1 {
		x, err := mat.Solve(a.Diag[0], b)
		if err != nil {
			return nil, err
		}
		rd.stats = SolveStats{Flops: luFlops(a.M) + luSolveFlops(a.M, b.Cols), Wall: time.Since(start)}
		rd.stats.MaxRankFlops = rd.stats.Flops
		return x, nil
	}
	w := rd.world
	w.ResetTotals()
	//lint:ignore hotalloc Solve returns a caller-owned result matrix
	x := mat.New(a.N*a.M, b.Cols)
	perRank := make([]int64, w.P)
	growth := make([]float64, w.P)
	var es errSlot
	runErr := w.Run(func(c *comm.Comm) {
		perRank[c.Rank()], growth[c.Rank()] = rd.rdSolveRank(c, b, x, &es)
	})
	if err := es.get(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	rd.stats = SolveStats{
		Comm:         w.TotalStats(),
		MaxSimComm:   w.MaxSimCommTime(),
		Wall:         time.Since(start),
		PrefixGrowth: growth[w.P-1],
	}
	rd.stats.mergeRankFlops(perRank)
	return x, nil
}

// rdSolveRank is one rank's share of a recursive doubling solve. It returns
// the rank's analytic flop count and, on the last rank, the prefix growth
// diagnostic. All per-solve storage is checked out of the rank's arena; RD
// still redoes every operation per solve (that is the algorithm), it just
// stops paying the allocator for the privilege. Transfer-matrix applications
// go through applyT so RD and ARD keep producing bit-identical solutions.
func (rd *RD) rdSolveRank(c *comm.Comm, b, x *mat.Matrix, es *errSlot) (int64, float64) {
	a := rd.a
	r, p := c.Rank(), c.Size()
	n, m, rhs := a.N, a.M, b.Cols
	lo, hi := PartRange(n, p, r)
	first := max(lo, 1)
	ws := rd.ws[r]
	ws.Reset()
	var fc flopCounter

	// Phase 1: build local scan elements and reduce them to the local
	// total — the O(M^3 N/P) term, redone on every RD solve. The elements
	// and the S compose are ARD's factor-phase ones, so the two solvers
	// agree bit for bit. The running total ping-pongs between two arena
	// buffers per half.
	elems := make([]element, 0, max(hi-first, 0))
	fs := make([]*mat.Matrix, 0, max(hi-first, 0))
	sbuf := [2]*mat.Matrix{ws.GetNoClear(2*m, 2*m), ws.GetNoClear(2*m, 2*m)}
	hbuf := [2]*mat.Matrix{ws.GetNoClear(2*m, rhs), ws.GetNoClear(2*m, rhs)}
	cur := 0
	localTotal := Affine{}
	var buildErr error
	for i := first; i < hi; i++ {
		e, err := buildElement(ws, ws.GetNoClear(m, 2*m), a, i)
		if err != nil {
			buildErr = err
			break
		}
		fc.add(luFlops(m) + luSolveFlops(m, m)) // factor U, solve for D
		if a.Lower[i-1] != nil {
			fc.add(luSolveFlops(m, m))
		}
		f := e.buildFInto(ws, m, wsBlockOf(ws, b, m, i-1))
		fc.add(luSolveFlops(m, rhs))
		elems, fs = append(elems, e), append(fs, f)
		ns, nh := sbuf[cur], hbuf[cur]
		cur ^= 1
		composeT(ws, ns, e.top, mat.PackedA{}, localTotal.S, nil)
		if localTotal.IsIdentity() {
			localTotal = Affine{S: ns, H: f}
			continue
		}
		fc.add(gemmFlops(2*m, 2*m, 2*m) + gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
		applyT(ws, e.top, mat.PackedA{}, localTotal.H, f, nh, m, nil)
		localTotal = Affine{S: ns, H: nh}
	}
	if buildErr != nil {
		es.set(buildErr)
	}
	if !agreeOK(c, buildErr == nil) {
		return fc.n, 0
	}

	// Phase 2: cross-rank exclusive scan — the O(M^3 log P) term.
	countingOp := func(earlier, later Affine) Affine {
		if !earlier.IsIdentity() && !later.IsIdentity() {
			fc.add(gemmFlops(2*m, 2*m, 2*m) + gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
		}
		return ComposeAffine(earlier, later)
	}
	codec := prefix.Codec[Affine]{Encode: encodeAffine, Decode: decodeAffine}
	pi, _ := prefix.ExScanRanks(c, localTotal, countingOp, codec, rd.sched, tagRDScan)

	// Phase 3: reduced system for x_0 on the last rank, then broadcast.
	// Every rank checks out the x0 buffer so the broadcast decodes in place.
	x0 := ws.GetNoClear(m, rhs)
	growth := 0.0
	solveOK := true
	if r == p-1 {
		totalS, totalH := localTotal.S, localTotal.H
		if !pi.IsIdentity() {
			fc.add(gemmFlops(2*m, 2*m, 2*m) + gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
			ts := ws.GetNoClear(2*m, 2*m)
			mat.Mul(ts, localTotal.S, pi.S)
			totalH = composeHWS(ws, pi.H, localTotal.S, mat.PackedA{}, localTotal.H, nil)
			totalS = ts
		}
		growth = mat.NormFrob(totalS)
		rm := reducedMatrixWS(ws, a, totalS)
		fc.add(2 * gemmFlops(m, m, m))
		luRm, err := ws.LU(rm)
		if err != nil {
			es.set(err)
			solveOK = false
		} else {
			fc.add(luFlops(m))
			rrhs := reducedRHS(ws, a, totalH, wsBlockOf(ws, b, m, n-1), mat.PackedA{}, mat.PackedA{}, nil)
			fc.add(2 * gemmFlops(m, m, rhs))
			luRm.SolveTo(x0, rrhs)
			fc.add(luSolveFlops(m, rhs))
		}
	}
	if !agreeOK(c, solveOK) {
		return fc.n, growth
	}
	c.BcastMatrixInto(p-1, x0)

	// Phase 4: local recovery by state propagation — O(M^2 R N/P).
	if lo == 0 && hi > 0 {
		wsBlockOf(ws, x, m, 0).CopyFrom(x0)
	}
	y := applyPrefixState(ws, m, pi.S, mat.PackedA{}, pi.H, x0, nil)
	if pi.S != nil {
		fc.add(gemmFlops(2*m, m, rhs) + addFlops(2*m, rhs))
	}
	ybuf := [2]*mat.Matrix{ws.GetNoClear(2*m, rhs), ws.GetNoClear(2*m, rhs)}
	ycur := 0
	for k, e := range elems {
		dst := ybuf[ycur]
		ycur ^= 1
		applyT(ws, e.top, mat.PackedA{}, y, fs[k], dst, m, nil)
		y = dst
		fc.add(gemmFlops(2*m, 2*m, rhs) + addFlops(2*m, rhs))
		wsBlockOf(ws, x, m, e.idx).CopyFrom(ws.View(y, 0, 0, m, rhs))
	}
	return fc.n, growth
}
