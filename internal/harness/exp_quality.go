package harness

import (
	"fmt"
	"time"

	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/costmodel"
	"blocktri/internal/workload"
)

// Experiments E6-E10: accuracy, communication, amortization, the Thomas
// crossover and model validation.

func init() {
	Register(Experiment{ID: "E6", Title: "Accuracy: relative residuals per solver and family", Run: runE6})
	Register(Experiment{ID: "E7", Title: "Communication volume per solve: RD vs ARD", Run: runE7})
	Register(Experiment{ID: "E8", Title: "ARD phase breakdown and amortization crossover", Run: runE8})
	Register(Experiment{ID: "E9", Title: "Thomas crossover: modeled critical path", Run: runE9})
	Register(Experiment{ID: "E10", Title: "Model validation: measured vs analytic", Run: runE10})
}

func runE6(quick bool) ([]*Table, error) {
	defer serialKernels()()
	sizes := []struct{ n, m int }{{16, 4}, {64, 4}, {64, 8}}
	if quick {
		sizes = sizes[:2]
	}
	t := NewTable("E6: relative residual ||Ax-b||/||b|| (R=2, P=4)",
		"family", "N", "M", "dense-lu", "thomas", "rd", "ard", "ard+refine")
	t.Note = "RD/ARD error grows with the transfer-matrix prefix products on generic dominant matrices (ard+refine = 3 steps of iterative refinement, which recovers full accuracy while PrefixGrowth*eps << 1); on oscillatory (stable-recurrence) workloads they match direct methods"
	for _, fam := range workload.Families {
		for _, sz := range sizes {
			a := workload.Build(fam, sz.n, sz.m, 6)
			b := a.RandomRHS(2, randFor(7))
			row := []any{fam.String(), sz.n, sz.m}
			for _, s := range []core.Solver{
				core.NewDense(a), core.NewThomas(a),
				core.NewRD(a, core.Config{World: comm.NewWorld(4)}),
				core.NewARD(a, core.Config{World: comm.NewWorld(4)}),
			} {
				x, err := s.Solve(b)
				if err != nil {
					row = append(row, "err:"+err.Error())
					continue
				}
				row = append(row, fmt.Sprintf("%.2e", a.RelResidual(x, b)))
			}
			ard := core.NewARD(a, core.Config{World: comm.NewWorld(4)})
			if xr, _, err := core.SolveRefined(ard, b, 3); err == nil {
				row = append(row, fmt.Sprintf("%.2e", a.RelResidual(xr, b)))
			} else {
				row = append(row, "err:"+err.Error())
			}
			t.AddRow(row...)
		}
	}
	return []*Table{t}, nil
}

func runE7(quick bool) ([]*Table, error) {
	defer serialKernels()()
	n, m := 1024, 16
	ps := []int{2, 4, 8, 16, 32}
	if quick {
		n, m = 128, 8
		ps = []int{2, 4, 8}
	}
	t := NewTable(fmt.Sprintf("E7: communication per solve (oscillatory N=%d M=%d, R=1)", n, m),
		"P", "RD bytes", "RD msgs", "ARD-solve bytes", "ARD-solve msgs", "bytes ratio", "RD max simT", "ARD max simT")
	t.Note = "per Kogge-Stone round RD ships the (2M)^2 matrix + 2M vector; ARD's solve phase ships only the 2M vector — a ~2M reduction in scan payload"
	for _, p := range ps {
		a := workload.Build(workload.Oscillatory, n, m, 8)
		st, err := measureSolvers(a, p, 1, 1)
		if err != nil {
			return nil, fmt.Errorf("P=%d: %w", p, err)
		}
		rdB, ardB := st.rd.solveSt.Comm.BytesSent, st.ard.solveSt.Comm.BytesSent
		ratio := 0.0
		if ardB > 0 {
			ratio = float64(rdB) / float64(ardB)
		}
		t.AddRow(p, rdB, st.rd.solveSt.Comm.MsgsSent, ardB, st.ard.solveSt.Comm.MsgsSent,
			ratio,
			fmt.Sprintf("%.2e s", st.rd.solveSt.MaxSimComm),
			fmt.Sprintf("%.2e s", st.ard.solveSt.MaxSimComm))
	}
	return []*Table{t}, nil
}

func runE8(quick bool) ([]*Table, error) {
	defer serialKernels()()
	n, m, p := 512, 16, 8
	reps := 3
	if quick {
		n, m = 96, 6
		reps = 2
	}
	a := workload.Build(workload.Oscillatory, n, m, 10)
	st, err := measureSolvers(a, p, 1, reps)
	if err != nil {
		return nil, err
	}

	t := NewTable(fmt.Sprintf("E8: ARD phase breakdown (oscillatory N=%d M=%d P=%d, R=1)", n, m, p),
		"phase", "time", "flops", "bytes sent")
	t.AddRow("ARD factor (once)", st.ard.factor, st.ard.factorSt.Flops, st.ard.factorSt.Comm.BytesSent)
	t.AddRow("ARD solve (per RHS)", st.ard.solve, st.ard.solveSt.Flops, st.ard.solveSt.Comm.BytesSent)
	t.AddRow("RD solve (per RHS)", st.rd.solve, st.rd.solveSt.Flops, st.rd.solveSt.Comm.BytesSent)
	t.AddRow("Thomas factor (once, P=1)", st.th.factor, "-", 0)
	t.AddRow("Thomas solve (per RHS, P=1)", st.th.solve, "-", 0)

	cross := NewTable("E8b: amortization crossover",
		"comparison", "crossover R*")
	gain := seconds(st.rd.solve) - seconds(st.ard.solve)
	if gain > 0 {
		cross.AddRow("ARD total < RD total", fmt.Sprintf("%.2f", seconds(st.ard.factor)/gain))
	} else {
		cross.AddRow("ARD total < RD total", "never (no per-solve gain)")
	}
	cross.Note = "R* = t_factor / (t_rd - t_ard): the number of right-hand sides after which ARD's one-time factor cost is repaid"
	return []*Table{t, cross}, nil
}

func runE9(quick bool) ([]*Table, error) {
	defer serialKernels()()
	n, m := 1024, 8
	if quick {
		n = 128
	}
	machine, err := calibratedMachine(n, m)
	if err != nil {
		return nil, err
	}
	t := NewTable(fmt.Sprintf("E9: Thomas vs RD/ARD modeled critical path (N=%d M=%d, R=1)", n, m),
		"P", "Thomas (P=1)", "RD model", "ARD-solve model")
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		prm := costmodel.Params{N: n, M: m, P: p, R: 1}
		thomas := machine.Time(costmodel.Cost{
			MaxRankFlops: costmodel.ThomasSolve(prm).MaxRankFlops +
				costmodel.ThomasFactor(prm).MaxRankFlops})
		t.AddRow(p,
			time.Duration(thomas*1e9),
			time.Duration(machine.Time(costmodel.RDSolve(prm))*1e9),
			time.Duration(machine.Time(costmodel.ARDSolve(prm))*1e9))
	}
	t.Note = "the distributed algorithms overtake single-rank Thomas once P covers their transfer-matrix work overhead"
	return []*Table{t}, nil
}

func runE10(quick bool) ([]*Table, error) {
	defer serialKernels()()
	grid := []costmodel.Params{
		{N: 128, M: 4, P: 4, R: 1}, {N: 128, M: 8, P: 8, R: 2},
		{N: 256, M: 8, P: 4, R: 1}, {N: 512, M: 4, P: 16, R: 4},
	}
	reps := 2
	if quick {
		grid = grid[:2]
	}
	t := NewTable("E10: model validation (flops exact; time via calibrated flop rate)",
		"N", "M", "P", "R", "RD flops meas", "RD flops model", "ARD flops meas", "ARD flops model", "RD wall", "RD predicted")
	for _, prm := range grid {
		a := workload.Build(workload.Oscillatory, prm.N, prm.M, 13)
		st, err := measureSolvers(a, prm.P, prm.R, reps)
		if err != nil {
			return nil, fmt.Errorf("N=%d M=%d: %w", prm.N, prm.M, err)
		}
		machine, err := calibratedMachine(prm.N, prm.M)
		if err != nil {
			return nil, err
		}
		t.AddRow(prm.N, prm.M, prm.P, prm.R,
			st.rd.solveSt.Flops, costmodel.RDSolve(prm).Flops,
			st.ard.solveSt.Flops, costmodel.ARDSolve(prm).Flops,
			st.rd.solve, time.Duration(machine.Time(costmodel.RDSolve(prm))*1e9))
	}
	t.Note = "measured flop counters must equal the model exactly (double-entry); wall vs predicted agrees up to scheduling overhead since ranks timeshare one host"
	return []*Table{t}, nil
}
