package core

import (
	"math/rand"
	"testing"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
)

func TestRefinementRecoversAccuracy(t *testing.T) {
	// A moderately-growing system where plain ARD loses ~7 digits:
	// refinement must bring it back near machine precision.
	rng := rand.New(rand.NewSource(301))
	a := blocktri.RandomDiagDominant(16, 4, rng) // growth ~1e6..1e9
	b := a.RandomRHS(2, rng)
	ard := NewARD(a, Config{World: comm.NewWorld(4)})
	plain, err := ard.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	plainRes := a.RelResidual(plain, b)
	refined, rep, err := SolveRefined(ard, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	refinedRes := a.RelResidual(refined, b)
	if plainRes < 1e-10 {
		t.Fatalf("test premise broken: plain ARD already accurate (%v)", plainRes)
	}
	if refinedRes > plainRes/100 {
		t.Fatalf("refinement only improved %v -> %v", plainRes, refinedRes)
	}
	if refinedRes > 1e-12 {
		t.Fatalf("refined residual %v not near machine precision", refinedRes)
	}
	if !rep.Improved() || rep.Iters == 0 {
		t.Fatalf("report inconsistent with improvement: %+v", rep)
	}
}

func TestRefinementNoopWhenAlreadyAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	a := blocktri.Oscillatory(64, 4, rng)
	b := a.RandomRHS(1, rng)
	ard := NewARD(a, Config{World: comm.NewWorld(4)})
	x, _, err := SolveRefined(ard, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rr := a.RelResidual(x, b); rr > 1e-12 {
		t.Fatalf("residual %v after refinement on stable family", rr)
	}
}

func TestRefinementCannotRescueExtremeGrowth(t *testing.T) {
	// At growth ~1e27 the base solver has no correct digits; refinement
	// must not pretend otherwise: the residual stays hopeless and the
	// caller can see it in the report.
	rng := rand.New(rand.NewSource(303))
	a := blocktri.RandomDiagDominant(64, 4, rng)
	b := a.RandomRHS(1, rng)
	ard := NewARD(a, Config{World: comm.NewWorld(4)})
	x, rep, err := SolveRefined(ard, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x == nil {
		t.Fatal("must return the best iterate")
	}
	if a.RelResidual(x, b) < 1 {
		t.Fatalf("refinement unexpectedly rescued growth %v", ard.Stats().PrefixGrowth)
	}
	if rep.FinalResidual < 1 {
		t.Fatalf("report claims small residual: %+v", rep)
	}
}

func TestRefinementWorksForAllResidualSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	a := blocktri.RandomDiagDominant(12, 3, rng)
	b := a.RandomRHS(2, rng)
	solvers := []Solver{
		NewThomas(a),
		NewRD(a, Config{World: comm.NewWorld(3)}),
		NewARD(a, Config{World: comm.NewWorld(3)}),
		NewSpike(a, Config{World: comm.NewWorld(2)}),
	}
	for _, s := range solvers {
		x, _, err := SolveRefined(s, b, 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if rr := a.RelResidual(x, b); rr > 1e-10 {
			t.Fatalf("%s: refined residual %v", s.Name(), rr)
		}
	}
}

func TestRefinementZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	a := blocktri.Oscillatory(8, 2, rng)
	b := a.RandomRHS(1, rng)
	b.Zero()
	ard := NewARD(a, Config{World: comm.NewWorld(2)})
	x, _, err := SolveRefined(ard, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The exact solution is zero; the residual norm must be ~0.
	if rr := a.RelResidual(x, b); rr > 1e-12 {
		t.Fatalf("zero-RHS residual %v", rr)
	}
}
