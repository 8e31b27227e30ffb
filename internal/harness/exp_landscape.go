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

	th := core.NewThomas(a)
	for _, s := range []core.Solver{
		th,
		core.NewRD(a, core.Config{World: comm.NewWorld(p)}),
		core.NewARD(a, core.Config{World: comm.NewWorld(p)}),
		core.NewSpike(a, core.Config{World: comm.NewWorld(p)}),
	} {
		r, err := factorAndSolve(s, b, reps)
		if err != nil {
			return nil, err
		}
		name, factor := s.Name(), any(r.factor)
		if s == core.Solver(th) {
			name += " (P=1)"
		}
		if r.factorSt.Flops == 0 {
			factor = "-" // RD: no factor phase
		}
		t.AddRow(name, factor, r.solve, r.solveSt.Flops, r.solveSt.Comm.BytesSent,
			r.factorSt.StoredBytes, fmt.Sprintf("%.1e", a.RelResidual(r.x, b)))
	}
	return []*Table{t}, nil
}
