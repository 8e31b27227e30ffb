package harness

import (
	"fmt"

	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/workload"
)

// E13 places every solver in this repository side by side on one
// configuration: factor time, per-solve time, per-solve flops and bytes,
// retained memory, and accuracy — the summary table a practitioner would
// consult to pick an algorithm.

func init() {
	Register(Experiment{ID: "E13", Title: "Solver landscape: all algorithms side by side", Run: runE13})
}

func runE13(quick bool) ([]*Table, error) {
	defer serialKernels()()
	n, m, p := 512, 16, 8
	reps := 3
	if quick {
		n, m = 96, 6
		reps = 2
	}
	a := workload.Build(workload.Oscillatory, n, m, 20)
	b := a.RandomRHS(1, randFor(21))

	t := NewTable(fmt.Sprintf("E13: solver landscape (oscillatory N=%d M=%d P=%d, R=1)", n, m, p),
		"solver", "factor", "per solve", "solve flops", "solve bytes", "stored", "residual")
	t.Note = "Thomas runs on one rank; RD has no factor phase (it repeats the matrix work every solve)"

	type factoredSolver interface {
		core.Solver
		Factor() error
		FactorStats() core.SolveStats
		Stats() core.SolveStats
	}
	addFactored := func(s factoredSolver) error {
		factor, err := MeasureErr(0, 1, s.Factor)
		if err != nil {
			return fmt.Errorf("%s factor: %w", s.Name(), err)
		}
		solve, err := MeasureErr(1, reps, func() error {
			_, err := s.Solve(b)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s solve: %w", s.Name(), err)
		}
		x, err := s.Solve(b)
		if err != nil {
			return fmt.Errorf("%s solve: %w", s.Name(), err)
		}
		st := s.Stats()
		t.AddRow(s.Name(), factor, solve, st.Flops, st.Comm.BytesSent,
			s.FactorStats().StoredBytes, fmt.Sprintf("%.1e", a.RelResidual(x, b)))
		return nil
	}

	// Thomas (sequential). Capture the stored-bytes figure right after
	// Factor, before the solves overwrite the stats.
	th := core.NewThomas(a)
	thFactor, err := MeasureErr(0, 1, th.Factor)
	if err != nil {
		return nil, fmt.Errorf("Thomas factor: %w", err)
	}
	thStored := th.Stats().StoredBytes
	thSolve, err := MeasureErr(1, reps, func() error {
		_, err := th.Solve(b)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("Thomas solve: %w", err)
	}
	xt, err := th.Solve(b)
	if err != nil {
		return nil, fmt.Errorf("Thomas solve: %w", err)
	}
	t.AddRow(th.Name()+" (P=1)", thFactor, thSolve, th.Stats().Flops, 0,
		thStored, fmt.Sprintf("%.1e", a.RelResidual(xt, b)))

	// RD (no reuse).
	rd := core.NewRD(a, core.Config{World: comm.NewWorld(p)})
	rdSolve, err := MeasureErr(1, reps, func() error {
		_, err := rd.Solve(b)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("RD solve: %w", err)
	}
	xr, err := rd.Solve(b)
	if err != nil {
		return nil, fmt.Errorf("RD solve: %w", err)
	}
	t.AddRow(rd.Name(), "-", rdSolve, rd.Stats().Flops, rd.Stats().Comm.BytesSent, 0,
		fmt.Sprintf("%.1e", a.RelResidual(xr, b)))

	for _, s := range []factoredSolver{
		core.NewARD(a, core.Config{World: comm.NewWorld(p)}),
		core.NewSpike(a, core.Config{World: comm.NewWorld(p)}),
	} {
		if err := addFactored(s); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
