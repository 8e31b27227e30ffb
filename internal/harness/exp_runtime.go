package harness

import (
	"fmt"
	"time"

	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/costmodel"
	"blocktri/internal/workload"
)

// Experiments E1-E5: the runtime tables and figures. Sequential solves
// with distinct right-hand sides are the paper's workload: total RD cost
// is R * t_rd, total ARD cost is t_factor + R * t_solve. Per-call times
// are measured (with warmup and repetition); totals for large R are the
// exact arithmetic of the measured per-call times, cross-checked against
// directly measured small-R totals in the E1 table.

func init() {
	Register(Experiment{ID: "E1", Title: "Runtime vs number of right-hand sides (RD vs ARD)", Run: runE1})
	Register(Experiment{ID: "E2", Title: "ARD speedup vs R for several block sizes", Run: runE2})
	Register(Experiment{ID: "E3", Title: "Strong scaling: runtime vs P", Run: runE3})
	Register(Experiment{ID: "E4", Title: "Runtime vs N", Run: runE4})
	Register(Experiment{ID: "E5", Title: "Runtime vs block size M", Run: runE5})
}

func runE1(quick bool) ([]*Table, error) {
	n, m, p := 512, 16, 8
	rs := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	reps := 3
	if quick {
		n, m = 96, 6
		rs = []int{1, 2, 4, 8, 16, 32}
		reps = 2
	}
	a := workload.Build(workload.Oscillatory, n, m, 1)
	st, err := measureSolvers(a, p, 1, reps)
	if err != nil {
		return nil, err
	}

	t := NewTable(fmt.Sprintf("E1: total time for R sequential solves (oscillatory N=%d M=%d P=%d)", n, m, p),
		"R", "RD total", "ARD total", "speedup", "model speedup")
	t.Note = fmt.Sprintf("per-call: RD solve %v | ARD factor %v | ARD solve %v",
		st.rd.solve, st.ard.factor, st.ard.solve)
	params := costmodel.Params{N: n, M: m, P: p, R: 1}
	var xs, rdYs, ardYs []float64
	for _, r := range rs {
		rdTotal := time.Duration(r) * st.rd.solve
		ardTotal := st.ard.factor + time.Duration(r)*st.ard.solve
		t.AddRow(r, rdTotal, ardTotal,
			seconds(rdTotal)/seconds(ardTotal),
			costmodel.PredictedSpeedup(params, r))
		xs = append(xs, float64(r))
		rdYs = append(rdYs, seconds(rdTotal))
		ardYs = append(ardYs, seconds(ardTotal))
	}
	chart := NewChart("Figure E1: total time vs R (log-log)", "R", "seconds")
	chart.LogX, chart.LogY = true, true
	chart.AddSeries("RD", xs, rdYs)
	chart.AddSeries("ARD", xs, ardYs)
	t.Chart = chart

	// Cross-check: directly measured totals for small R must match the
	// per-call extrapolation.
	check := NewTable("E1b: extrapolation cross-check (directly measured totals)",
		"R", "RD direct", "RD extrapolated", "ARD direct", "ARD extrapolated")
	for _, r := range rs[:3] {
		rd := core.NewRD(a, core.Config{World: comm.NewWorld(p)})
		stream := workload.NewRHSStream(a, 1, 42)
		rdDirect, err := MeasureErr(0, 1, func() error {
			for i := 0; i < r; i++ {
				if _, err := rd.Solve(stream.Next()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("E1b RD direct (R=%d): %w", r, err)
		}
		ard := core.NewARD(a, core.Config{World: comm.NewWorld(p)})
		stream2 := workload.NewRHSStream(a, 1, 42)
		ardDirect, err := MeasureErr(0, 1, func() error {
			if err := ard.Factor(); err != nil {
				return err
			}
			for i := 0; i < r; i++ {
				if _, err := ard.Solve(stream2.Next()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("E1b ARD direct (R=%d): %w", r, err)
		}
		check.AddRow(r, rdDirect, time.Duration(r)*st.rd.solve,
			ardDirect, st.ard.factor+time.Duration(r)*st.ard.solve)
	}
	return []*Table{t, check}, nil
}

func runE2(quick bool) ([]*Table, error) {
	n, p := 256, 8
	ms := []int{4, 8, 16, 32}
	rs := []int{1, 4, 16, 64, 256, 1024, 4096}
	reps := 3
	if quick {
		n = 64
		ms = []int{2, 4, 8}
		rs = []int{1, 4, 16, 64, 256}
		reps = 2
	}
	cols := []string{"R"}
	for _, m := range ms {
		cols = append(cols, fmt.Sprintf("speedup M=%d", m), fmt.Sprintf("model M=%d", m))
	}
	t := NewTable(fmt.Sprintf("E2: ARD speedup over RD vs R (oscillatory N=%d P=%d)", n, p), cols...)
	t.Note = "speedup = R*t_rd / (t_factor + R*t_ard); saturates near O(M) as R grows"

	type times struct{ rd, factor, solve float64 }
	perM := make(map[int]times)
	for _, m := range ms {
		a := workload.Build(workload.Oscillatory, n, m, 2)
		st, err := measureSolvers(a, p, 1, reps)
		if err != nil {
			return nil, fmt.Errorf("M=%d: %w", m, err)
		}
		perM[m] = times{seconds(st.rd.solve), seconds(st.ard.factor), seconds(st.ard.solve)}
	}
	chart := NewChart("Figure E2: measured ARD speedup vs R", "R", "speedup")
	chart.LogX = true
	series := make(map[int][]float64)
	var xs []float64
	for _, r := range rs {
		row := []any{r}
		xs = append(xs, float64(r))
		for _, m := range ms {
			tm := perM[m]
			speed := float64(r) * tm.rd / (tm.factor + float64(r)*tm.solve)
			row = append(row, speed,
				costmodel.PredictedSpeedup(costmodel.Params{N: n, M: m, P: p, R: 1}, r))
			series[m] = append(series[m], speed)
		}
		t.AddRow(row...)
	}
	for _, m := range ms {
		chart.AddSeries(fmt.Sprintf("M=%d", m), xs, series[m])
	}
	t.Chart = chart
	return []*Table{t}, nil
}

func runE3(quick bool) ([]*Table, error) {
	n, m := 2048, 8
	ps := []int{1, 2, 4, 8, 16, 32, 64}
	reps := 2
	if quick {
		n = 256
		ps = []int{1, 2, 4, 8}
	}
	machine, err := calibratedMachine(n, m)
	if err != nil {
		return nil, err
	}
	t := NewTable(fmt.Sprintf("E3: strong scaling (oscillatory N=%d M=%d, R=1 per solve)", n, m),
		"P", "RD wall", "ARD-solve wall", "RD model", "ARD-solve model", "RD rounds")
	t.Note = "wall = single-host measurement (ranks timeshare cores); model = per-rank critical path + alpha-beta network (the distributed-machine prediction, N/P + log P shape)"
	for _, p := range ps {
		a := workload.Build(workload.Oscillatory, n, m, 3)
		st, err := measureSolvers(a, p, 1, reps)
		if err != nil {
			return nil, fmt.Errorf("P=%d: %w", p, err)
		}
		prm := costmodel.Params{N: n, M: m, P: p, R: 1}
		rdC := costmodel.RDSolve(prm)
		ardC := costmodel.ARDSolve(prm)
		t.AddRow(p, st.rd.solve, st.ard.solve,
			time.Duration(machine.Time(rdC)*1e9),
			time.Duration(machine.Time(ardC)*1e9),
			rdC.Rounds)
	}
	return []*Table{t}, nil
}

func runE4(quick bool) ([]*Table, error) {
	m, p := 8, 8
	ns := []int{128, 256, 512, 1024, 2048, 4096}
	reps := 2
	if quick {
		ns = []int{64, 128, 256}
	}
	t := NewTable(fmt.Sprintf("E4: runtime vs N (oscillatory M=%d P=%d, R=1)", m, p),
		"N", "RD solve", "ARD factor", "ARD solve", "Thomas solve", "RD flops", "ARD flops")
	t.Note = "all three grow ~linearly in N (the N/P term dominates log P at these sizes)"
	chart := NewChart("Figure E4: per-solve time vs N (log-log)", "N", "seconds")
	chart.LogX, chart.LogY = true, true
	var xs, rdYs, ardYs, thYs []float64
	for _, n := range ns {
		a := workload.Build(workload.Oscillatory, n, m, 4)
		st, err := measureSolvers(a, p, 1, reps)
		if err != nil {
			return nil, fmt.Errorf("N=%d: %w", n, err)
		}
		t.AddRow(n, st.rd.solve, st.ard.factor, st.ard.solve, st.th.solve,
			st.rd.solveSt.Flops, st.ard.solveSt.Flops)
		xs = append(xs, float64(n))
		rdYs = append(rdYs, seconds(st.rd.solve))
		ardYs = append(ardYs, seconds(st.ard.solve))
		thYs = append(thYs, seconds(st.th.solve))
	}
	chart.AddSeries("RD", xs, rdYs)
	chart.AddSeries("ARD", xs, ardYs)
	chart.AddSeries("Thomas", xs, thYs)
	t.Chart = chart
	return []*Table{t}, nil
}

func runE5(quick bool) ([]*Table, error) {
	n, p := 256, 8
	ms := []int{2, 4, 8, 16, 32}
	reps := 2
	if quick {
		n = 64
		ms = []int{2, 4, 8, 16}
	}
	t := NewTable(fmt.Sprintf("E5: runtime vs block size M (oscillatory N=%d P=%d, R=1)", n, p),
		"M", "RD solve", "ARD solve", "RD/ARD ratio", "model ratio")
	t.Note = "RD grows ~M^3 per solve, ARD ~M^2: the ratio grows ~linearly in M"
	for _, m := range ms {
		a := workload.Build(workload.Oscillatory, n, m, 5)
		st, err := measureSolvers(a, p, 1, reps)
		if err != nil {
			return nil, fmt.Errorf("M=%d: %w", m, err)
		}
		prm := costmodel.Params{N: n, M: m, P: p, R: 1}
		modelRatio := float64(costmodel.RDSolve(prm).MaxRankFlops) /
			float64(costmodel.ARDSolve(prm).MaxRankFlops)
		t.AddRow(m, st.rd.solve, st.ard.solve,
			seconds(st.rd.solve)/seconds(st.ard.solve), modelRatio)
	}
	return []*Table{t}, nil
}

// calibratedMachine builds a machine model whose flop rate is measured on
// this host with a representative kernel, so model times are comparable to
// wall times.
func calibratedMachine(n, m int) (costmodel.Machine, error) {
	a := workload.Build(workload.Oscillatory, min(n, 256), m, 9)
	rd := core.NewRD(a, core.Config{World: comm.NewWorld(1)})
	b := a.RandomRHS(1, randFor(17))
	d, err := MeasureErr(1, 2, func() error {
		_, err := rd.Solve(b)
		return err
	})
	if err != nil {
		return costmodel.Machine{}, fmt.Errorf("calibration solve: %w", err)
	}
	rate := float64(rd.Stats().Flops) / seconds(d)
	return costmodel.Machine{FlopsPerSec: rate, Net: comm.DefaultCostModel}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
