package core

import (
	"errors"
	"math/rand"
	"testing"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// TestARDSolveToAllocationFree pins the tentpole property of the workspace
// rework: once Factor has run and a warm-up solve has grown the per-rank
// arenas and the comm layer's buffer pools to their high-water marks,
// ARD.SolveTo performs zero heap allocations per solve, for both single and
// batched right-hand sides. (testing.AllocsPerRun pins GOMAXPROCS to 1
// while measuring; the comm runtime's persistent rank workers still make
// progress because every blocking point yields.)
func TestARDSolveToAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := blocktri.RandomDiagDominant(64, 8, rng)
	for _, rhs := range []int{1, 4, 64, 256} {
		// Each R gets its own World, closed when the iteration ends. A World
		// left for its finalizer keeps its rank workers and watchdog parked
		// until a GC reaps it, and under CPU contention the runtime then
		// allocated fresh sudogs (its 96-byte goroutine wait records) inside
		// a later R's measured window.
		func() {
			w := comm.NewWorld(4)
			defer w.Close()
			s := NewARD(a, Config{World: w})
			if err := s.Factor(); err != nil {
				t.Fatal(err)
			}
			b := a.RandomRHS(rhs, rng)
			x := mat.New(b.Rows, b.Cols)
			for i := 0; i < 3; i++ { // warm the arenas and pools
				if err := s.SolveTo(x, b); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := s.SolveTo(x, b); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("ARD.SolveTo R=%d: %v allocs/op, want 0", rhs, allocs)
			}
			// The reused destination must hold exactly what a fresh Solve
			// produces. (At this N the transfer products have grown too
			// much for a residual check — that is RD-family conditioning,
			// measured by PrefixGrowth, not an allocation-path property.)
			want, err := s.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if !x.Equal(want) {
				t.Errorf("ARD.SolveTo R=%d differs from Solve", rhs)
			}
		}()
	}
}

// TestThomasSolveToAllocationFree pins the sequential baseline's reuse
// path: after the view-header arena warms up, SolveTo allocates nothing.
func TestThomasSolveToAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := blocktri.RandomDiagDominant(64, 8, rng)
	th := NewThomas(a)
	if err := th.Factor(); err != nil {
		t.Fatal(err)
	}
	b := a.RandomRHS(4, rng)
	x := mat.New(b.Rows, b.Cols)
	if err := th.SolveTo(x, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := th.SolveTo(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Thomas.SolveTo: %v allocs/op, want 0", allocs)
	}
	if rr := a.RelResidual(x, b); rr > solveTol {
		t.Errorf("Thomas.SolveTo: relative residual %v", rr)
	}
}

// everySolver returns one of each solver for a, the distributed ones over
// fresh p-rank worlds.
func everySolver(a *blocktri.Matrix, p int) []Solver {
	cfg := func() Config { return Config{World: comm.NewWorld(p)} }
	return []Solver{
		NewThomas(a), NewRD(a, cfg()), NewARD(a, cfg()), NewSpike(a, cfg()),
		NewDense(a), NewAuto(a, cfg(), AutoOptions{}),
	}
}

// TestSolveToMatchesSolve checks every solver's reuse path produces
// bit-identical results to the allocating Solve wrapper.
func TestSolveToMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := blocktri.RandomDiagDominant(33, 5, rng)
	b := a.RandomRHS(3, rng)
	for _, s := range everySolver(a, 3) {
		want, err := s.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		got := mat.New(b.Rows, b.Cols)
		if err := s.SolveTo(got, b); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: SolveTo differs from Solve", s.Name())
		}
	}
}

// TestSolveToShapeErrors checks every solver's destination-shape
// validation.
func TestSolveToShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := blocktri.RandomDiagDominant(8, 2, rng)
	b := a.RandomRHS(2, rng)
	bad := mat.New(b.Rows, b.Cols+1)
	for _, s := range everySolver(a, 2) {
		if err := s.SolveTo(bad, b); !errors.Is(err, ErrShape) {
			t.Errorf("%s: SolveTo on a mis-shaped destination gave %v, want ErrShape", s.Name(), err)
		}
	}
}
