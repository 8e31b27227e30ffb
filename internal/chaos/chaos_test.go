package chaos

import (
	"math/rand"
	"testing"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// trialSystem builds a well-conditioned system matching a hand-written plan.
func trialSystem(t *testing.T, pl plan) (*blocktri.Matrix, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	a := blocktri.RandomDiagDominant(pl.n, pl.m, rng)
	return a, a.RandomRHS(pl.rhs, rng)
}

// TestInvariantSmoke is the in-tree version of the CI chaos smoke: a small
// seeded campaign over every solver must end every trial in a correct
// solution or a clean typed error.
func TestInvariantSmoke(t *testing.T) {
	opts := DefaultOptions(1)
	opts.Plans = 8
	rep := Run(opts)
	if want := opts.Plans * len(SolverNames); len(rep.Trials) != want {
		t.Fatalf("ran %d trials, want %d", len(rep.Trials), want)
	}
	for _, v := range rep.Violations {
		t.Errorf("plan %d solver %s (P=%d N=%d M=%d): %s", v.Plan, v.Solver, v.P, v.N, v.M, v.Detail)
	}
	if rep.Solved == 0 {
		t.Error("no trial solved anything; the campaign is not exercising the solvers")
	}
}

// TestDeterministicReplay: the same seed must draw the same plans and
// classify the sequential solver (whose trials involve no scheduling races)
// identically.
func TestDeterministicReplay(t *testing.T) {
	opts := DefaultOptions(7)
	opts.Plans = 6
	opts.Solvers = []string{"thomas"}
	a := Run(opts)
	b := Run(opts)
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.Fault != tb.Fault || ta.N != tb.N || ta.M != tb.M || ta.P != tb.P {
			t.Fatalf("trial %d plans differ:\n%+v\n%+v", i, ta, tb)
		}
		if ta.Outcome != tb.Outcome || ta.Residual != tb.Residual {
			t.Fatalf("trial %d outcomes differ: %v/%g vs %v/%g",
				i, ta.Outcome, ta.Residual, tb.Outcome, tb.Residual)
		}
	}
}

// TestCrashPlanYieldsTypedError pins the clean-failure half of the
// invariant: a plan that crashes a rank mid-solve must end as a typed
// error, not a solve and not a violation.
func TestCrashPlanYieldsTypedError(t *testing.T) {
	pl := plan{p: 2, n: 6, m: 2, rhs: 1,
		fault: comm.FaultPlan{Seed: 3, CrashRank: 1, CrashAtOp: 2}}
	a, b := trialSystem(t, pl)
	tr := runTrial(0, "rd", pl, a, b, 1e-8)
	if tr.Outcome != TypedError {
		t.Fatalf("outcome %v (err %q, detail %q), want typed error", tr.Outcome, tr.Err, tr.Detail)
	}
}

// TestStallPlanResolves: an infinite stall must resolve via watchdog or
// receive timeout, never hang the harness.
func TestStallPlanResolves(t *testing.T) {
	pl := plan{p: 2, n: 6, m: 2, rhs: 1,
		fault: comm.FaultPlan{Seed: 5, StallRank: 0, StallAtOp: 3}}
	a, b := trialSystem(t, pl)
	done := make(chan Trial, 1)
	go func() { done <- runTrial(0, "spike", pl, a, b, 1e-8) }()
	select {
	case tr := <-done:
		if tr.Outcome != TypedError {
			t.Fatalf("outcome %v (err %q, detail %q), want typed error", tr.Outcome, tr.Err, tr.Detail)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled trial did not resolve: the harness hung")
	}
}
