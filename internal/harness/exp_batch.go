package harness

import (
	"fmt"
	"time"

	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/workload"
)

// E12 measures the effect of batching right-hand sides into one solve
// call (R columns per Solve). Batching amortizes RD's O(M^3) matrix work
// across the R columns — a batched RD call is, in effect, ARD's factor
// and solve fused — so the per-right-hand-side RD/ARD ratio falls toward
// ~1 as the batch widens. This delimits the paper's claim precisely: the
// O(R) advantage belongs to the STREAMING regime, where right-hand sides
// arrive one at a time (time stepping, source iteration, interactive
// studies) and cannot be batched; there RD pays M^3 on every call (the
// E1 curve) while ARD pays it once.

func init() {
	Register(Experiment{ID: "E12", Title: "Batch width: per-RHS cost vs columns per solve", Run: runE12})
}

func runE12(quick bool) ([]*Table, error) {
	n, m, p := 256, 16, 8
	widths := []int{1, 2, 4, 8, 16, 32}
	reps := 3
	if quick {
		n, m = 96, 8
		widths = []int{1, 4, 16}
		reps = 2
	}
	a := workload.Build(workload.Oscillatory, n, m, 18)
	t := NewTable(fmt.Sprintf("E12: per-right-hand-side cost vs batch width (oscillatory N=%d M=%d P=%d)", n, m, p),
		"R per call", "RD /RHS", "ARD /RHS", "RD/ARD", "ARD flops/RHS")
	t.Note = "batched RD amortizes its M^3 work across the R columns (approaching ARD factor+solve fused), so the per-RHS ratio falls toward ~1: ARD's O(R) advantage belongs to the streaming regime where batching is impossible"
	for _, r := range widths {
		b := a.RandomRHS(r, randFor(int64(19+r)))
		rd := core.NewRD(a, core.Config{World: comm.NewWorld(p)})
		rdT, err := MeasureErr(1, reps, func() error {
			_, err := rd.Solve(b)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("RD solve (R=%d): %w", r, err)
		}
		ard := core.NewARD(a, core.Config{World: comm.NewWorld(p)})
		if err := ard.Factor(); err != nil {
			return nil, fmt.Errorf("ARD factor (R=%d): %w", r, err)
		}
		ardT, err := MeasureErr(1, reps, func() error {
			_, err := ard.Solve(b)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ARD solve (R=%d): %w", r, err)
		}
		t.AddRow(r,
			rdT/time.Duration(r),
			ardT/time.Duration(r),
			seconds(rdT)/seconds(ardT),
			ard.Stats().Flops/int64(r))
	}
	return []*Table{t}, nil
}
