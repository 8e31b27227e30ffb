package harness

import (
	"fmt"
	"math/rand"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/mat"
)

// serialKernels disables nested GEMM parallelism for the duration of an
// experiment so per-rank compute stays attributable to its rank; it
// returns a restore function.
func serialKernels() func() {
	old := mat.ParallelEnabled()
	mat.SetParallel(false)
	return func() { mat.SetParallel(old) }
}

// timing is one solver's measured factor time and best per-solve time,
// with the stats of each phase and the last solution.
type timing struct {
	factor, solve     time.Duration
	factorSt, solveSt core.SolveStats
	x                 *mat.Matrix
}

// factorAndSolve times s's Factor once and its SolveTo for b over reps
// calls after one warm-up. A solver failure (singular diagonal, shape
// mismatch) aborts the measurement and is returned to the experiment
// runner.
func factorAndSolve(s core.Solver, b *mat.Matrix, reps int) (timing, error) {
	var t timing
	var err error
	if t.factor, err = MeasureErr(0, 1, s.Factor); err != nil {
		return t, fmt.Errorf("%s factor: %w", s.Name(), err)
	}
	t.x = mat.New(b.Rows, b.Cols)
	if t.solve, err = MeasureErr(1, reps, func() error { return s.SolveTo(t.x, b) }); err != nil {
		return t, fmt.Errorf("%s solve: %w", s.Name(), err)
	}
	t.factorSt, t.solveSt = s.FactorStats(), s.Stats()
	return t, nil
}

// solverTimes holds the timings of the repeated-solve strategies on one
// matrix: classic RD, ARD, and sequential Thomas.
type solverTimes struct{ rd, ard, th timing }

// measureSolvers times the strategies on matrix a with p ranks and r
// right-hand-side columns per call, taking solve times over reps calls.
func measureSolvers(a *blocktri.Matrix, p, r, reps int) (solverTimes, error) {
	rng := rand.New(rand.NewSource(int64(a.N*1000003 + a.M*101 + p)))
	b := a.RandomRHS(r, rng)
	var ts [3]timing
	for i, s := range []core.Solver{
		core.NewRD(a, core.Config{World: comm.NewWorld(p)}),
		core.NewARD(a, core.Config{World: comm.NewWorld(p)}),
		core.NewThomas(a),
	} {
		var err error
		if ts[i], err = factorAndSolve(s, b, reps); err != nil {
			return solverTimes{}, err
		}
	}
	return solverTimes{rd: ts[0], ard: ts[1], th: ts[2]}, nil
}

// seconds converts a duration to float seconds for ratio arithmetic.
func seconds(d time.Duration) float64 { return d.Seconds() }

// randFor returns a deterministic RNG for the given seed.
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
