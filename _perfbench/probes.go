package main

import (
	"fmt"
	"math/rand"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/costmodel"
	"blocktri/internal/mat"
)

const mib = 1 << 20

// checkFlops fails when ARD's counted solve flops differ from the cost
// model's prediction for the same shape.
func checkFlops(ard *core.ARD, a *blocktri.Matrix, r int) error {
	want := costmodel.ARDSolve(costmodel.Params{N: a.N, M: a.M, P: ranks, R: r}).Flops
	if got := ard.Stats().Flops; got != want {
		return fmt.Errorf("ARD solve at N=%d M=%d R=%d counted %d flops, costmodel.ARDSolve predicts %d", a.N, a.M, r, got, want)
	}
	return nil
}

// perCall times f in batches of n calls and returns the median batch time
// per call, in seconds. The probe is one root span.
func perCall(tr *tracer, name string, n, batches int, f func()) float64 {
	sp := tr.begin(name, -1, 0)
	defer tr.end(sp)
	f()
	ts := make([]float64, batches)
	for i := range ts {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			f()
		}
		ts[i] = time.Since(t0).Seconds() / float64(n)
	}
	return quantile(ts, 0.5)
}

// kernelProbes times the mat and comm calls a solve makes at block size m
// and width r.
func kernelProbes(tr *tracer, m, r int, rng *rand.Rand, out metrics) error {
	pa := mat.NewPackedA(1, mat.Random(m, 2*m, rng))
	panel, dst := mat.Random(2*m, r, rng), mat.New(m, r)
	scratch := make([]float64, mat.PackBLen(2*m, r))
	t := perCall(tr, "probe.mat.MulAddPacked", 64, 41, func() { mat.MulAddPacked(dst, pa, panel, scratch) })
	out.set("mat.panel_gflops", float64(2*m*2*m*r)/t*1e-9, "GFLOP/s")

	a, v, y := mat.Random(m, 2*m, rng), mat.Random(2*m, 1, rng), mat.New(m, 1)
	t = perCall(tr, "probe.mat.Mul.gemv", 256, 41, func() { mat.Mul(y, a, v) })
	out.set("mat.gemv_ns", t*1e9, "ns")

	lu, err := mat.Factor(mat.RandomDiagDominant(m, 1, rng))
	if err != nil {
		return fmt.Errorf("LU probe: %w", err)
	}
	b, x := mat.Random(m, r, rng), mat.New(m, r)
	t = perCall(tr, "probe.mat.LU.SolveTo", 64, 41, func() { lu.SolveTo(x, b) })
	out.set("mat.lu_solve_ns", t*1e9, "ns")

	t1, t2, t3 := mat.Random(2*m, 2*m, rng), mat.Random(2*m, 2*m, rng), mat.New(2*m, 2*m)
	t = perCall(tr, "probe.mat.Mul.transfer", 16, 41, func() { mat.Mul(t3, t1, t2) })
	out.set("mat.factor_gemm_ns", t*1e9, "ns")

	w := comm.NewWorld(ranks)
	defer w.Close()
	var runErr error
	empty := func(*comm.Comm) {}
	t = perCall(tr, "probe.comm.Run", 1, 1001, func() {
		if err := w.Run(empty); err != nil {
			runErr = err
		}
	})
	out.set("comm.run_us", t*1e6, "us")

	payload := [ranks][]float64{make([]float64, 2*m*r), make([]float64, 2*m*r)}
	const tag = 1
	swap := func(c *comm.Comm) {
		peer := 1 - c.Rank()
		c.Send(peer, tag, payload[c.Rank()])
		c.Release(c.Recv(peer, tag))
	}
	t = perCall(tr, "probe.comm.exchange", 1, 1001, func() {
		if err := w.Run(swap); err != nil {
			runErr = err
		}
	})
	out.set("comm.exchange_us", t*1e6, "us")
	if runErr != nil {
		return fmt.Errorf("comm probe: %w", runErr)
	}
	return nil
}

// solverProbes times RD and a width-1 ARD on a, for the paper's per-RHS
// gain, and block Thomas at width r, the single-threaded baseline.
func solverProbes(tr *tracer, a *blocktri.Matrix, r int, rng *rand.Rand, out metrics) error {
	w := comm.NewWorld(ranks)
	defer w.Close()
	b1, x1 := a.RandomRHS(1, rng), mat.New(a.N*a.M, 1)
	var err error
	rd := core.NewRD(a, core.Config{World: w})
	tRD := perCall(tr, "probe.core.RD.Solve", 1, 15, func() {
		if _, e := rd.Solve(b1); e != nil {
			err = e
		}
	})
	ard := core.NewARD(a, core.Config{World: w})
	if e := ard.Factor(); e != nil {
		return fmt.Errorf("ARD probe: %w", e)
	}
	tARD := perCall(tr, "probe.core.ARD.SolveTo.r1", 1, 41, func() {
		if e := ard.SolveTo(x1, b1); e != nil {
			err = e
		}
	})
	th := core.NewThomas(a)
	if e := th.Factor(); e != nil {
		return fmt.Errorf("Thomas probe: %w", e)
	}
	b, x := a.RandomRHS(r, rng), mat.New(a.N*a.M, r)
	tTh := perCall(tr, "probe.core.Thomas.SolveTo", 1, 21, func() {
		if e := th.SolveTo(x, b); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("solver probe: %w", err)
	}
	out.set("prefix.rd_solve_us", tRD*1e6, "us")
	out.set("core.ard_over_rd", tRD/tARD, "ratio")
	out.set("core.thomas_rhs_per_s", float64(r)/tTh, "1/s")
	return nil
}

// solveAllocs counts heap allocations per warm call of solve.
func solveAllocs(tr *tracer, solve func() error) (float64, error) {
	sp := tr.begin("probe.core.allocs", -1, 0)
	defer tr.end(sp)
	if err := solve(); err != nil {
		return 0, err
	}
	const n = 50
	m0 := mallocs()
	for i := 0; i < n; i++ {
		if err := solve(); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-m0) / n, nil
}

// factorMetrics reports Factor's cost from the FactorStats of several
// factorizations of one matrix, and the bytes one solve touches.
func factorMetrics(fs []core.SolveStats, a *blocktri.Matrix, r int, out metrics) {
	walls := make([]float64, len(fs))
	for i, f := range fs {
		walls[i] = f.Wall.Seconds()
	}
	wall := quantile(walls, 0.5)
	f := fs[len(fs)-1]
	out.set("core.factor_ms", wall*1e3, "ms")
	out.set("core.factor_gflops", float64(f.Flops)/wall*1e-9, "GFLOP/s")
	out.set("core.stored_mb", float64(f.StoredBytes)/mib, "MiB")
	out.set("core.prefix_growth", f.PrefixGrowth, "ratio")
	// Computed, not measured: stored factors, b, x, and one 2M x r panel
	// per block row.
	rows := int64(a.N * a.M)
	touched := f.StoredBytes + 8*(2*rows*int64(r)+int64(a.N)*int64(2*a.M*r))
	out.set("mat.solve_mb", float64(touched)/mib, "MiB")
}

// solveMetrics reports ARD's solve cost from its median call time.
func solveMetrics(solveSec float64, flops int64, cs comm.Stats, r int, out metrics) {
	gflops := float64(flops) / solveSec * 1e-9
	out.set("core.solve_us", solveSec*1e6, "us")
	out.set("core.solve_gflops", gflops, "GFLOP/s")
	out.set("core.kernel_frac", gflops/out["mat.panel_gflops"].Value, "ratio")
	out.set("core.flops_per_rhs", float64(flops)/float64(r), "flop")
	out.set("comm.msgs_per_solve", float64(cs.MsgsSent), "count")
	out.set("comm.bytes_per_solve", float64(cs.BytesSent), "B")
}
