// Command blocktri-model prints analytic cost predictions (flops, scan
// traffic, predicted times, ARD-over-RD speedup) for arbitrary problem
// and machine parameters, without running any solver. The model is the
// one validated against the solvers' measured counters in experiment E10.
//
// Usage:
//
//	blocktri-model -n 4096 -m 32 -r 1 -p 1,2,4,8,16,32,64
//	blocktri-model -n 1024 -m 16 -nrhs 1,10,100,1000 -p 64
//	blocktri-model -flops 5e10 -alpha 2e-6 -beta 1e-10 ...
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"blocktri/internal/comm"
	"blocktri/internal/costmodel"
	"blocktri/internal/harness"
)

func main() {
	n := flag.Int("n", 1024, "block rows")
	m := flag.Int("m", 16, "block size")
	r := flag.Int("r", 1, "right-hand-side columns per solve")
	ps := flag.String("p", "1,2,4,8,16,32,64", "comma-separated rank counts")
	nrhs := flag.String("nrhs", "1,10,100,1000,10000", "comma-separated right-hand-side counts for the speedup table")
	rate := flag.Float64("flops", 1e9, "machine flop rate per rank (flop/s)")
	alpha := flag.Float64("alpha", comm.DefaultCostModel.Alpha, "network latency per message (s)")
	beta := flag.Float64("beta", comm.DefaultCostModel.Beta, "network transfer time per byte (s)")
	flag.Parse()

	machine := costmodel.Machine{
		FlopsPerSec: *rate,
		Net:         comm.CostModel{Alpha: *alpha, Beta: *beta},
	}

	pList, err := parseInts(*ps)
	if err != nil {
		fatal(err)
	}
	scaling := harness.NewTable(
		fmt.Sprintf("Predicted per-solve critical path (N=%d M=%d R=%d, %.3g flop/s, alpha=%.1es beta=%.1es/B)",
			*n, *m, *r, *rate, *alpha, *beta),
		"P", "Thomas(P=1)", "RD", "ARD factor", "ARD solve", "SPIKE factor", "SPIKE solve", "RD scan KiB")
	for _, p := range pList {
		prm := costmodel.Params{N: *n, M: *m, P: p, R: *r}
		thomas := machine.Time(costmodel.Cost{
			MaxRankFlops: costmodel.ThomasFactor(prm).MaxRankFlops + costmodel.ThomasSolve(prm).MaxRankFlops})
		rd := costmodel.RDSolve(prm)
		row := []any{p,
			dur(thomas),
			dur(machine.Time(rd)),
			dur(machine.Time(costmodel.ARDFactor(prm))),
			dur(machine.Time(costmodel.ARDSolve(prm))),
		}
		if *n >= 2*p {
			row = append(row,
				dur(machine.Time(costmodel.SpikeFactor(prm))),
				dur(machine.Time(costmodel.SpikeSolve(prm))))
		} else {
			row = append(row, "n/a", "n/a")
		}
		row = append(row, rd.ScanWords*8/1024)
		scaling.AddRow(row...)
	}
	scaling.Render(os.Stdout)

	rhsList, err := parseInts(*nrhs)
	if err != nil {
		fatal(err)
	}
	pFixed := pList[len(pList)-1]
	speedup := harness.NewTable(
		fmt.Sprintf("Predicted ARD speedup over RD for R sequential solves (P=%d)", pFixed),
		"R", "RD total", "ARD total", "speedup")
	prm := costmodel.Params{N: *n, M: *m, P: pFixed, R: *r}
	rdOne := machine.Time(costmodel.RDSolve(prm))
	af := machine.Time(costmodel.ARDFactor(prm))
	as := machine.Time(costmodel.ARDSolve(prm))
	for _, rr := range rhsList {
		rdTotal := float64(rr) * rdOne
		ardTotal := af + float64(rr)*as
		speedup.AddRow(rr, dur(rdTotal), dur(ardTotal), rdTotal/ardTotal)
	}
	speedup.Render(os.Stdout)
}

func dur(seconds float64) time.Duration {
	return time.Duration(seconds * 1e9)
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad integer list entry %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "blocktri-model: %v\n", err)
	os.Exit(1)
}
