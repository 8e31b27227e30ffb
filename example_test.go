package blocktri_test

import (
	"fmt"
	"math/rand"

	"blocktri"
)

// The examples below are compiled and run by `go test`; they document the
// intended call patterns of the public API.

// Example is the package documentation's quick start: ARD on a
// stable-recurrence system, checked against its residual bound.
func Example() {
	rng := rand.New(rand.NewSource(1))
	a := blocktri.NewOscillatory(1024, 16, rng) // 1024 block rows of 16x16
	world := blocktri.NewWorld(8)               // 8 communicating ranks
	solver := blocktri.NewARD(a, blocktri.Config{World: world})
	b := a.RandomRHS(4, rng) // (N*M) x R stacked, R = 4
	x, err := solver.Solve(b)
	if err != nil {
		panic(err)
	}
	fmt.Println("relative residual below 1e-12:", a.RelResidual(x, b) < 1e-12)
	// Output:
	// relative residual below 1e-12: true
}

func ExampleNewARD() {
	// Factor once, then solve many right-hand sides cheaply.
	a := blocktri.NewAnisotropicDiffusion(8, 32, 0.02)
	ard := blocktri.NewARD(a, blocktri.Config{World: blocktri.NewWorld(4)})
	if err := ard.Factor(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 3; step++ {
		b := a.RandomRHS(1, rng)
		x, err := ard.Solve(b)
		if err != nil {
			panic(err)
		}
		fmt.Printf("step %d: residual below 1e-9: %v\n", step, a.RelResidual(x, b) < 1e-9)
	}
	// Output:
	// step 0: residual below 1e-9: true
	// step 1: residual below 1e-9: true
	// step 2: residual below 1e-9: true
}

func ExampleNewAuto() {
	// A strongly diagonally dominant matrix is outside recursive
	// doubling's stable regime; Auto detects this from the measured
	// prefix growth and falls back to a stable solver.
	rng := rand.New(rand.NewSource(2))
	a := blocktri.NewRandomDiagDominant(32, 4, rng)
	auto := blocktri.NewAuto(a, blocktri.Config{World: blocktri.NewWorld(4)}, blocktri.AutoOptions{})
	b := a.RandomRHS(1, rng)
	x, err := auto.Solve(b)
	if err != nil {
		panic(err)
	}
	fmt.Println("solver:", auto.Name())
	fmt.Println("accurate:", a.RelResidual(x, b) < 1e-10)
	// Output:
	// solver: auto(spike)
	// accurate: true
}

func ExampleSolveRefined() {
	// On a moderately growing system, iterative refinement recovers the
	// digits plain ARD loses.
	rng := rand.New(rand.NewSource(3))
	a := blocktri.NewRandomDiagDominant(16, 4, rng)
	ard := blocktri.NewARD(a, blocktri.Config{World: blocktri.NewWorld(2)})
	b := a.RandomRHS(1, rng)
	x, rep, err := blocktri.SolveRefined(ard, b, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("improved:", rep.Improved())
	fmt.Println("machine precision:", a.RelResidual(x, b) < 1e-12)
	// Output:
	// improved: true
	// machine precision: true
}
