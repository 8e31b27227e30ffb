// Command blocktri-verify checks every solver over a sweep of problem
// families and random shapes and rank counts (N < P included): each
// solution's relative residual must stay within the bound (the flat
// tolerance, widened by PrefixGrowth for the prefix-based solvers), and
// ARD(Factor+Solve) must be bit-identical to RD. Dense LU is one of the
// solvers checked. It exits nonzero if any check fails.
//
// Usage:
//
//	blocktri-verify            # standard sweep
//	blocktri-verify -trials 50 # more random trials
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/mat"
	"blocktri/internal/workload"
)

func main() {
	trials := flag.Int("trials", 20, "random configurations per family")
	seed := flag.Int64("seed", 1, "sweep seed")
	tol := flag.Float64("tol", 1e-6, "acceptable relative residual for direct solvers")
	growthEps := flag.Float64("growth-eps", 1e-13, "per-unit-growth error budget for the prefix-based solvers (RD/ARD): their bound is tol + growth-eps * PrefixGrowth, the standard forward-error model for transfer-matrix recursive doubling")
	maxN := flag.Int("max-n", 24, "largest N in the random sweep")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	failures := 0
	checks := 0
	for _, fam := range workload.Families {
		for trial := 0; trial < *trials; trial++ {
			// M up to 17 and R up to 9 reach every layout ARD keeps an
			// element in (unpacked, [TL TR] packed, both operands packed)
			// and right-hand panels from narrow to one full 8-column panel.
			n := 1 + rng.Intn(*maxN)
			m := 1 + rng.Intn(17)
			p := 1 + rng.Intn(6)
			r := 1 + rng.Intn(9)
			a := workload.Build(fam, n, m, rng.Int63())
			b := a.RandomRHS(r, rng)

			var rdX *mat.Matrix
			solvers := []core.Solver{
				core.NewDense(a),
				core.NewThomas(a),
				core.NewRD(a, core.Config{World: comm.NewWorld(p)}),
				core.NewARD(a, core.Config{World: comm.NewWorld(p)}),
				core.NewAuto(a, core.Config{World: comm.NewWorld(p)}, core.AutoOptions{}),
			}
			if n >= 2*p {
				solvers = append(solvers, core.NewSpike(a, core.Config{World: comm.NewWorld(p)}))
			}
			for _, s := range solvers {
				checks++
				x, err := s.Solve(b)
				if err != nil {
					fmt.Printf("FAIL %s N=%d M=%d P=%d R=%d %s: %v\n", fam, n, m, p, r, s.Name(), err)
					failures++
					continue
				}
				// Transfer-matrix recursive doubling amplifies rounding by
				// the growth of its prefix products (PrefixGrowth, zero for
				// the direct solvers), so its residual bound scales with
				// that growth — the standard forward-error model. Direct
				// solvers are held to the flat tolerance. E6 quantifies the
				// growth per family.
				bound := *tol + *growthEps*s.Stats().PrefixGrowth
				if rr := a.RelResidual(x, b); rr > bound {
					fmt.Printf("FAIL %s N=%d M=%d P=%d R=%d %s: residual %.3e > %.1e\n",
						fam, n, m, p, r, s.Name(), rr, bound)
					failures++
				}
				switch s.Name() {
				case "recursive-doubling":
					rdX = x
				case "accelerated-recursive-doubling":
					if rdX != nil && !x.Equal(rdX) {
						fmt.Printf("FAIL %s N=%d M=%d P=%d R=%d: ARD not bit-identical to RD\n",
							fam, n, m, p, r)
						failures++
					}
				}
			}
		}
	}
	fmt.Printf("\n%d checks, %d failures\n", checks, failures)
	if failures > 0 {
		os.Exit(1)
	}
}
