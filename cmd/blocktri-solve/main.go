// Command blocktri-solve builds (or loads) a block tridiagonal system,
// solves it with the selected algorithm, and reports the residual, timing
// and instrumentation.
//
// Usage:
//
//	blocktri-solve -family oscillatory -n 512 -m 16 -p 8 -r 4 -solver ard
//	blocktri-solve -in system.btd -solver thomas
//	blocktri-solve -family poisson-2d -n 128 -m 64 -save system.btd
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/workload"
)

func main() {
	family := flag.String("family", "oscillatory", "problem family: random-dd | oscillatory | poisson-2d | convection-diffusion | block-toeplitz")
	n := flag.Int("n", 256, "number of block rows")
	m := flag.Int("m", 8, "block size")
	p := flag.Int("p", 4, "number of ranks")
	r := flag.Int("r", 1, "right-hand-side columns")
	seed := flag.Int64("seed", 1, "generator seed")
	solverName := flag.String("solver", "ard", "solver: dense | thomas | rd | ard | spike | auto")
	in := flag.String("in", "", "read the matrix from this file instead of generating")
	save := flag.String("save", "", "write the generated matrix to this file and exit")
	solves := flag.Int("solves", 1, "number of sequential solves with fresh right-hand sides")
	saveFactor := flag.String("save-factor", "", "persist the ARD factorization to this file after solving")
	loadFactor := flag.String("load-factor", "", "restore an ARD factorization from this file (solver must be ard)")
	flag.Parse()

	a, err := buildMatrix(*in, *family, *n, *m, *seed)
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if _, err := a.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (N=%d M=%d)\n", *save, a.N, a.M)
		return
	}

	s, err := buildSolver(*solverName, a, *p)
	if err != nil {
		fatal(err)
	}
	if *loadFactor != "" {
		if *solverName != "ard" {
			fatal(fmt.Errorf("-load-factor requires -solver ard"))
		}
		f, err := os.Open(*loadFactor)
		if err != nil {
			fatal(err)
		}
		ard, err := core.LoadFactor(a, core.Config{World: comm.NewWorld(*p)}, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		s = ard
		fmt.Printf("restored factorization from %s (%d bytes retained)\n",
			*loadFactor, ard.FactorStats().StoredBytes)
	}
	fmt.Printf("system: N=%d M=%d (%d unknowns), solver=%s, P=%d, R=%d, solves=%d\n",
		a.N, a.M, a.N*a.M, s.Name(), *p, *r, *solves)
	if rate := core.EstimateGrowth(a, 8); rate > 0 {
		fmt.Printf("estimated recurrence growth rate: %.3g per row (RD/ARD error ~ rate^N * 1e-16)\n", rate)
	}

	stream := workload.NewRHSStream(a, *r, *seed+1)
	start := time.Now()
	var worstResidual float64
	for i := 0; i < *solves; i++ {
		b := stream.Next()
		x, err := s.Solve(b)
		if err != nil {
			fatal(err)
		}
		if rr := a.RelResidual(x, b); rr > worstResidual {
			worstResidual = rr
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("total time: %v (%v per solve)\n", elapsed, elapsed/time.Duration(*solves))
	fmt.Printf("worst relative residual: %.3e\n", worstResidual)

	st, fs := s.Stats(), s.FactorStats()
	fmt.Printf("last solve: flops=%d maxRankFlops=%d msgs=%d bytes=%d simCommMax=%.3es\n",
		st.Flops, st.MaxRankFlops, st.Comm.MsgsSent, st.Comm.BytesSent, st.MaxSimComm)
	fmt.Printf("factor phase: flops=%d wall=%v stored=%dB growth=%.3g\n",
		fs.Flops, fs.Wall, fs.StoredBytes, fs.PrefixGrowth)
	if auto, ok := s.(*core.Auto); ok {
		fmt.Printf("auto selection: %s\n", auto.Reason())
	}
	if ard, ok := s.(*core.ARD); ok && *saveFactor != "" {
		f, err := os.Create(*saveFactor)
		if err != nil {
			fatal(err)
		}
		n, err := ard.SaveFactor(f)
		if err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("saved factorization to %s (%d bytes)\n", *saveFactor, n)
	}
}

func buildMatrix(in, family string, n, m int, seed int64) (*blocktri.Matrix, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return blocktri.Read(f)
	}
	for _, fam := range workload.Families {
		if fam.String() == family {
			return workload.Build(fam, n, m, seed), nil
		}
	}
	if family == "random" { // convenience alias
		return blocktri.RandomDiagDominant(n, m, rand.New(rand.NewSource(seed))), nil
	}
	return nil, fmt.Errorf("unknown family %q", family)
}

func buildSolver(name string, a *blocktri.Matrix, p int) (core.Solver, error) {
	cfg := core.Config{World: comm.NewWorld(p)}
	switch name {
	case "dense":
		return core.NewDense(a), nil
	case "thomas":
		return core.NewThomas(a), nil
	case "rd":
		return core.NewRD(a, cfg), nil
	case "ard":
		return core.NewARD(a, cfg), nil
	case "spike":
		return core.NewSpike(a, cfg), nil
	case "auto":
		return core.NewAuto(a, cfg, core.AutoOptions{}), nil
	default:
		return nil, fmt.Errorf("unknown solver %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "blocktri-solve: %v\n", err)
	os.Exit(1)
}
