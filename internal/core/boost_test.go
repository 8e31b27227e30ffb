package core

import (
	"errors"
	"math/rand"
	"testing"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// singularLeadMatrix builds a nonsingular block tridiagonal matrix whose
// leading diagonal block is exactly zero: [[0, I], [I, I]] for N=2. Thomas
// hits the zero pivot immediately even though the full matrix is invertible.
func singularLeadMatrix(m int) *blocktri.Matrix {
	a := blocktri.New(2, m)
	a.Upper[0].SetIdentity()
	a.Lower[1].SetIdentity()
	a.Diag[1].SetIdentity()
	return a
}

func TestBoostDiagonalShiftsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := blocktri.RandomDiagDominant(3, 2, rng)
	orig := a.Diag[1].At(0, 0)
	b := BoostDiagonal(a, 0.5, true)
	if got := b.Diag[1].At(0, 0); got != orig+0.5 {
		t.Fatalf("boosted diag entry = %v, want %v", got, orig+0.5)
	}
	if got := b.Upper[0].At(1, 1); got != a.Upper[0].At(1, 1)+0.5 {
		t.Fatalf("boosted super entry = %v, want shift by 0.5", got)
	}
	if b.Upper[2] != nil {
		t.Fatal("boost must preserve the nil band structure")
	}
	if a.Diag[1].At(0, 0) != orig {
		t.Fatal("BoostDiagonal mutated its input")
	}
}

func TestSolveBoostedPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := blocktri.RandomDiagDominant(6, 3, rng)
	b := a.RandomRHS(2, rng)
	x, rep, err := SolveBoosted(a, func(m *blocktri.Matrix) Solver { return NewThomas(m) }, b, 4)
	if err != nil {
		t.Fatalf("SolveBoosted: %v", err)
	}
	if rep.Boosted {
		t.Fatalf("well-conditioned solve must not boost: %+v", rep)
	}
	if res := a.RelResidual(x, b); res > 1e-10 {
		t.Fatalf("residual %g too large", res)
	}
}

func TestSolveBoostedRecoversSingularPivot(t *testing.T) {
	a := singularLeadMatrix(2)
	rng := rand.New(rand.NewSource(13))
	b := a.RandomRHS(2, rng)
	newThomas := func(m *blocktri.Matrix) Solver { return NewThomas(m) }

	if _, err := NewThomas(a).Solve(b); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("plain Thomas: want ErrSingular, got %v", err)
	}
	x, rep, err := SolveBoosted(a, newThomas, b, 8)
	if err != nil {
		t.Fatalf("SolveBoosted: %v", err)
	}
	if !rep.Boosted || rep.Tau <= 0 || rep.Attempts < 1 {
		t.Fatalf("expected a boosted solve, got %+v", rep)
	}
	if res := a.RelResidual(x, b); res > 1e-8 {
		t.Fatalf("boosted residual %g too large (report %+v)", res, rep)
	}
	if rep.Refine.FinalResidual > rep.Refine.InitialResidual {
		t.Fatalf("refinement made the residual worse: %+v", rep.Refine)
	}
}

func TestSolveBoostedRecoversSingularSuper(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := blocktri.RandomDiagDominant(4, 2, rng)
	a.Upper[1].Zero() // recursive doubling cannot invert this block
	b := a.RandomRHS(1, rng)
	newRD := func(m *blocktri.Matrix) Solver { return NewRD(m, Config{}) }

	if _, err := NewRD(a, Config{}).Solve(b); !errors.Is(err, ErrSingularSuper) {
		t.Fatalf("plain RD: want ErrSingularSuper, got %v", err)
	}
	x, rep, err := SolveBoosted(a, newRD, b, 8)
	if err != nil {
		t.Fatalf("SolveBoosted: %v", err)
	}
	if !rep.Boosted || !rep.BoostedSuper {
		t.Fatalf("expected a super-boosted solve, got %+v", rep)
	}
	if res := a.RelResidual(x, b); res > 1e-6 {
		t.Fatalf("boosted residual %g too large (report %+v)", res, rep)
	}
}

// alwaysSingular exercises the escalation ladder: every factorization
// attempt reports a singular pivot regardless of the shift. The embedded
// Solver is nil: SolveBoosted calls only Solve.
type alwaysSingular struct {
	Solver
	calls *int
}

func (s alwaysSingular) Name() string { return "always-singular" }
func (s alwaysSingular) Solve(b *mat.Matrix) (*mat.Matrix, error) {
	*s.calls++
	return nil, mat.ErrSingular
}

func TestSolveBoostedExhaustsLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := blocktri.RandomDiagDominant(3, 2, rng)
	b := a.RandomRHS(1, rng)
	calls := 0
	_, rep, err := SolveBoosted(a, func(*blocktri.Matrix) Solver { return alwaysSingular{calls: &calls} }, b, 4)
	if !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("want wrapped ErrSingular after exhaustion, got %v", err)
	}
	if rep.Attempts != maxBoostAttempts {
		t.Fatalf("attempts = %d, want %d", rep.Attempts, maxBoostAttempts)
	}
	if calls != maxBoostAttempts+1 { // plain solve + each boosted attempt
		t.Fatalf("solver constructed %d times, want %d", calls, maxBoostAttempts+1)
	}
}

// failOther verifies that non-singular errors pass through untouched.
type failOther struct{ Solver }

func (failOther) Name() string { return "fail-other" }
func (failOther) Solve(b *mat.Matrix) (*mat.Matrix, error) {
	return nil, errors.New("disk on fire")
}

func TestSolveBoostedPassesThroughOtherErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := blocktri.RandomDiagDominant(3, 2, rng)
	b := a.RandomRHS(1, rng)
	_, rep, err := SolveBoosted(a, func(*blocktri.Matrix) Solver { return failOther{} }, b, 4)
	if err == nil || err.Error() != "disk on fire" {
		t.Fatalf("want pass-through error, got %v", err)
	}
	if rep.Boosted {
		t.Fatalf("must not boost on a non-singular error: %+v", rep)
	}
}
