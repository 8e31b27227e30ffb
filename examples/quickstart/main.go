// Quickstart: build a block tridiagonal system, solve it with accelerated
// recursive doubling, and check the residual and conditioning diagnostic.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"blocktri"
)

func main() {
	// An oscillatory system: 1024 block rows with 16 x 16 blocks, whose
	// propagation modes lie on the unit circle. Its block recurrence
	// neither grows nor decays, which is the regime recursive doubling is
	// accurate in at any N (see the package documentation's caveat).
	rng := rand.New(rand.NewSource(1))
	a := blocktri.NewOscillatory(1024, 16, rng)

	// A communicator with 8 ranks (goroutine-backed; on a cluster these
	// would be MPI processes).
	world := blocktri.NewWorld(8)
	solver := blocktri.NewARD(a, blocktri.Config{World: world})

	// Factor once; every subsequent Solve costs only O(M^2) per block row.
	if err := solver.Factor(); err != nil {
		log.Fatal(err)
	}

	// Four right-hand sides solved in one batched call, stacked as an
	// (N*M) x 4 matrix.
	b := a.RandomRHS(4, rng)

	x, err := solver.Solve(b)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("system: %d unknowns (N=%d block rows, M=%d block size)\n",
		a.N*a.M, a.N, a.M)
	fmt.Printf("relative residual: %.3e\n", a.RelResidual(x, b))
	fmt.Printf("prefix growth (error amplification ~ this x 1e-16): %.3g\n",
		solver.Stats().PrefixGrowth)
	fmt.Printf("factor: %v, solve: %v\n",
		solver.FactorStats().Wall, solver.Stats().Wall)
	fmt.Printf("solve moved %d bytes in %d messages across %d ranks\n",
		solver.Stats().Comm.BytesSent, solver.Stats().Comm.MsgsSent, world.P)
}
