package harness

import (
	"fmt"

	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/workload"
)

// E11 compares ARD against the SPIKE partition method — the numerically
// stable factor/solve-split alternative — on both a stable-recurrence
// workload (where ARD's cheaper solve phase wins) and a diagonally
// dominant workload (where only SPIKE is accurate). This quantifies the
// accuracy/performance trade the paper's algorithm occupies.

func init() {
	Register(Experiment{ID: "E11", Title: "ARD vs SPIKE: the stable alternative", Run: runE11})
}

func runE11(quick bool) ([]*Table, error) {
	defer serialKernels()()
	n, m, p := 512, 16, 8
	reps := 3
	if quick {
		n, m = 128, 6
		reps = 2
	}

	perf := NewTable(fmt.Sprintf("E11: factor/solve times (oscillatory N=%d M=%d P=%d, R=1)", n, m, p),
		"solver", "factor", "per solve", "solve flops", "solve bytes")
	a := workload.Build(workload.Oscillatory, n, m, 14)
	b := a.RandomRHS(1, randFor(15))

	for _, row := range []struct {
		name string
		s    core.Solver
	}{
		{"ARD", core.NewARD(a, core.Config{World: comm.NewWorld(p)})},
		{"SPIKE", core.NewSpike(a, core.Config{World: comm.NewWorld(p)})},
		{"Thomas (P=1)", core.NewThomas(a)},
	} {
		r, err := factorAndSolve(row.s, b, reps)
		if err != nil {
			return nil, err
		}
		perf.AddRow(row.name, r.factor, r.solve, r.solveSt.Flops, r.solveSt.Comm.BytesSent)
	}
	perf.Note = "ARD's solve phase moves less data per round (2M vs SPIKE's interface gathers) and does O(M^2) work per row; SPIKE's reduced phase is O(P) rather than O(log P)"

	// Accuracy contrast across families.
	acc := NewTable("E11b: accuracy contrast (relative residual, R=2, P=4)",
		"family", "N", "ARD", "SPIKE")
	sizes := []struct{ n, m int }{{16, 4}, {64, 4}}
	for _, fam := range []workload.Family{workload.Oscillatory, workload.RandomDD, workload.Poisson} {
		for _, sz := range sizes {
			aa := workload.Build(fam, sz.n, sz.m, 16)
			bb := aa.RandomRHS(2, randFor(17))
			row := []any{fam.String(), sz.n}
			for _, s := range []core.Solver{
				core.NewARD(aa, core.Config{World: comm.NewWorld(4)}),
				core.NewSpike(aa, core.Config{World: comm.NewWorld(4)}),
			} {
				x, err := s.Solve(bb)
				if err != nil {
					row = append(row, "err:"+err.Error())
					continue
				}
				row = append(row, fmt.Sprintf("%.2e", aa.RelResidual(x, bb)))
			}
			acc.AddRow(row...)
		}
	}
	acc.Note = "SPIKE (block-LU based) is accurate on every family; ARD inherits recursive doubling's dependence on the recurrence growth"
	return []*Table{perf, acc}, nil
}
