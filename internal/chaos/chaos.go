// Package chaos is the fault-injection harness for the solver stack: it
// runs every solver under randomized-but-seeded fault plans and asserts
// the resilience invariant — each trial ends in a correct solution or a
// clean typed error; never a hang, never an escaped panic, and never a
// silent wrong answer.
//
// Hangs are excluded by construction: every world runs with a short
// deadlock window, so a no-progress state surfaces as a *comm.DeadlockError
// instead of blocking the harness. Wrong answers are excluded by checking
// the relative residual of every "successful" solve against the original
// matrix. Everything else must be one of the runtime's typed failures.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/mat"
)

// SolverNames lists the solvers a chaos run covers, in run order.
var SolverNames = []string{"thomas", "rd", "ard", "spike"}

// Options configures a chaos run. The zero value is not useful; use
// DefaultOptions as the base.
type Options struct {
	// Seed makes the run reproducible: same seed, same plans, same
	// matrices, same injected faults.
	Seed int64
	// Plans is the number of randomized fault plans; every plan runs every
	// solver in Solvers.
	Plans int
	// MaxP bounds the randomized world size (>= 1).
	MaxP int
	// MaxN bounds the randomized extra block rows beyond the 2*P minimum.
	MaxN int
	// MaxM bounds the randomized block size (>= 1).
	MaxM int
	// Tol is the relative-residual threshold above which a returned
	// solution counts as a silent wrong answer.
	Tol float64
	// Solvers restricts the run to a subset of SolverNames; nil runs all.
	Solvers []string
	// TrialBudget is the wall-clock budget for one (plan, solver) trial.
	// A trial that takes longer is flagged as an overrun in the report,
	// naming the scenario — the early-warning signal that a fault path has
	// started to wedge before it degrades into an outright hang. Zero means
	// DefaultTrialBudget; negative disables the check.
	TrialBudget time.Duration
	// Log, when non-nil, receives one line per trial.
	Log io.Writer
}

// DefaultTrialBudget bounds one trial's wall clock when Options.TrialBudget
// is zero. Every fault scenario is built to resolve in well under a second
// (tight recv timeouts, short deadlock window), so thirty seconds of slack
// only trips on a genuine scheduling wedge.
const DefaultTrialBudget = 30 * time.Second

// DefaultOptions returns the standard chaos configuration for a seed.
func DefaultOptions(seed int64) Options {
	return Options{Seed: seed, Plans: 32, MaxP: 6, MaxN: 12, MaxM: 3, Tol: 1e-8}
}

// Outcome classifies one trial.
type Outcome int

const (
	// Solved: the solver returned x with an acceptable residual.
	Solved Outcome = iota
	// TypedError: the solver failed with one of the runtime's typed errors
	// — the clean-failure half of the invariant.
	TypedError
	// Violated: the invariant broke (hang would appear as DeadlockError, so
	// in practice: escaped panic, untyped error, or silent wrong answer).
	Violated
)

func (o Outcome) String() string {
	switch o {
	case Solved:
		return "solved"
	case TypedError:
		return "typed-error"
	default:
		return "VIOLATION"
	}
}

// Trial records one (plan, solver) execution.
type Trial struct {
	Plan    int
	Solver  string
	P, N, M int
	Fault   comm.FaultPlan
	Outcome Outcome
	// Residual is the relative residual of the returned solution (Solved
	// outcomes only); Tol is the effective bound it was held to, which for
	// the prefix-product solvers scales with their PrefixGrowth diagnostic.
	Residual, Tol float64
	// Err is the error text for TypedError outcomes.
	Err string
	// Detail explains a Violated outcome.
	Detail string
	// Wall is the trial's wall-clock time; Overrun marks it as having
	// exceeded the run's per-trial budget.
	Wall    time.Duration
	Overrun bool
}

// Scenario describes the trial compactly for overrun reporting.
func (t Trial) Scenario() string {
	return fmt.Sprintf("plan %d solver %s (P=%d N=%d M=%d)", t.Plan, t.Solver, t.P, t.N, t.M)
}

// Report aggregates a chaos run.
type Report struct {
	Trials     []Trial
	Solved     int
	TypedErrs  int
	Violations []Trial
	// Overruns lists trials that blew the per-trial wall-clock budget,
	// regardless of how they were otherwise classified.
	Overruns []Trial
}

// Ok reports whether the resilience invariant held across the whole run:
// no violations and no trial over its wall-clock budget.
func (r *Report) Ok() bool { return len(r.Violations) == 0 && len(r.Overruns) == 0 }

// plan is the randomized scenario shared by every solver in one iteration.
type plan struct {
	p, n, m, rhs int
	fault        comm.FaultPlan
}

// drawPlan randomizes one scenario. Probabilities are chosen so that most
// plans are recoverable (drops/dups/corruption/delays that the retransmit
// protocol absorbs) while a meaningful fraction injects a crash or a stall
// and must end in a typed error.
func drawPlan(rng *rand.Rand, opts Options) plan {
	p := 1 + rng.Intn(opts.MaxP)
	n := 2*p + rng.Intn(opts.MaxN+1) // N >= 2P keeps SPIKE in its domain
	m := 1 + rng.Intn(opts.MaxM)
	fp := comm.FaultPlan{Seed: rng.Int63()}
	if rng.Float64() < 0.7 {
		fp.Drop = rng.Float64() * 0.12
		fp.Dup = rng.Float64() * 0.15
		fp.Corrupt = rng.Float64() * 0.10
	}
	if rng.Float64() < 0.3 {
		fp.Delay = rng.Float64() * 0.3
		fp.MaxDelay = time.Duration(1+rng.Intn(200)) * time.Microsecond
	}
	switch {
	case rng.Float64() < 0.25:
		fp.CrashRank = rng.Intn(p)
		fp.CrashAtOp = 1 + rng.Intn(40)
	case rng.Float64() < 0.2:
		fp.StallRank = rng.Intn(p)
		fp.StallAtOp = 1 + rng.Intn(40)
		if rng.Float64() < 0.5 {
			fp.StallFor = time.Duration(1+rng.Intn(5)) * time.Millisecond
		} // else: stall until the watchdog breaks the world
	}
	return plan{p: p, n: n, m: m, rhs: 1 + rng.Intn(3), fault: fp}
}

// shortResilience is the per-trial failure-handling config: tight enough
// that a poisoned trial resolves in well under a second, loose enough that
// recoverable fault plans still succeed.
func shortResilience() comm.Resilience {
	return comm.Resilience{
		RecvTimeout:   25 * time.Millisecond,
		MaxRetries:    10,
		Backoff:       1.5,
		DeadlockAfter: 250 * time.Millisecond,
	}
}

// newSolver builds the named solver. Distributed solvers get the faulty
// world; thomas is sequential and exercises the invariant without
// injection.
func newSolver(name string, a *blocktri.Matrix, w *comm.World) core.Solver {
	cfg := core.Config{World: w}
	switch name {
	case "thomas":
		return core.NewThomas(a)
	case "rd":
		return core.NewRD(a, cfg)
	case "ard":
		return core.NewARD(a, cfg)
	case "spike":
		return core.NewSpike(a, cfg)
	}
	panic("chaos: unknown solver " + name)
}

// effectiveTol widens the residual bound for solvers whose rounding error
// is amplified by the transfer-matrix prefix product (RD/ARD report this as
// Stats().PrefixGrowth; see SolveStats). Their backward error is of order
// PrefixGrowth*eps even on a fault-free run, so holding them to the flat
// bound would flag ordinary floating-point behavior as a chaos violation.
// The widened bound is capped at 1e-2: past that the matrix is outside the
// solver's numerical domain and the residual check is only a gross-error
// backstop (fault injection cannot cause an undetected wrong answer anyway
// — corruption is checksummed — so this backstop guards harness and solver
// bugs, not flipped bits).
func effectiveTol(s core.Solver, tol float64) float64 {
	const (
		machEps  = 0x1p-52
		slack    = 64.0
		tolLimit = 1e-2
	)
	g := s.Stats().PrefixGrowth
	if g <= 1 {
		return tol
	}
	if gt := g * machEps * slack; gt > tol {
		return math.Min(gt, tolLimit)
	}
	return tol
}

// typedFailure reports whether err belongs to the runtime's clean typed
// error vocabulary.
func typedFailure(err error) bool {
	var re *comm.RankError
	var de *comm.DeadlockError
	return errors.As(err, &re) || errors.As(err, &de) ||
		errors.Is(err, comm.ErrRecvTimeout) ||
		errors.Is(err, comm.ErrInjectedCrash) ||
		errors.Is(err, core.ErrChunkTooSmall) ||
		core.Boostable(err)
}

// Run executes the chaos campaign and returns its report.
func Run(opts Options) *Report {
	if opts.MaxP < 1 || opts.MaxM < 1 || opts.Plans < 1 || opts.Tol <= 0 {
		d := DefaultOptions(opts.Seed)
		if opts.MaxP < 1 {
			opts.MaxP = d.MaxP
		}
		if opts.MaxM < 1 {
			opts.MaxM = d.MaxM
		}
		if opts.Plans < 1 {
			opts.Plans = d.Plans
		}
		if opts.Tol <= 0 {
			opts.Tol = d.Tol
		}
	}
	solvers := opts.Solvers
	if len(solvers) == 0 {
		solvers = SolverNames
	}
	budget := opts.TrialBudget
	if budget == 0 {
		budget = DefaultTrialBudget
	}
	rep := &Report{}
	for i := 0; i < opts.Plans; i++ {
		// One sub-rng per plan index: adding a plan or a solver never
		// reshuffles the scenarios of the others.
		mix := (uint64(i) + 1) * 0x9e3779b97f4a7c15
		rng := rand.New(rand.NewSource(opts.Seed ^ int64(mix>>1)))
		pl := drawPlan(rng, opts)
		a := blocktri.RandomDiagDominant(pl.n, pl.m, rng)
		b := a.RandomRHS(pl.rhs, rng)
		for _, name := range solvers {
			start := time.Now()
			tr := runTrial(i, name, pl, a, b, opts.Tol)
			tr.Wall = time.Since(start)
			if budget > 0 && tr.Wall > budget {
				tr.Overrun = true
				rep.Overruns = append(rep.Overruns, tr)
			}
			rep.Trials = append(rep.Trials, tr)
			switch tr.Outcome {
			case Solved:
				rep.Solved++
			case TypedError:
				rep.TypedErrs++
			default:
				rep.Violations = append(rep.Violations, tr)
			}
			if opts.Log != nil {
				line := fmt.Sprintf("plan %3d %-7s P=%d N=%-2d M=%d: %s", i, name, pl.p, pl.n, pl.m, tr.Outcome)
				switch tr.Outcome {
				case Solved:
					line += fmt.Sprintf(" (residual %.2e)", tr.Residual)
				case TypedError:
					line += " (" + tr.Err + ")"
				default:
					line += " (" + tr.Detail + ")"
				}
				if tr.Overrun {
					line += fmt.Sprintf(" OVERRAN budget: %v > %v", tr.Wall.Round(time.Millisecond), budget)
				}
				fmt.Fprintln(opts.Log, line)
			}
		}
	}
	return rep
}

// runTrial executes one (plan, solver) pair, converting every possible
// ending — including an escaped panic — into a classified Trial.
func runTrial(idx int, name string, pl plan, a *blocktri.Matrix, b *mat.Matrix, tol float64) (tr Trial) {
	tr = Trial{Plan: idx, Solver: name, P: pl.p, N: pl.n, M: pl.m, Fault: pl.fault}
	defer func() {
		if r := recover(); r != nil {
			tr.Outcome = Violated
			tr.Detail = fmt.Sprintf("escaped panic: %v", r)
		}
	}()
	w := comm.NewWorld(pl.p)
	w.SetResilience(shortResilience())
	w.SetFaultPlan(&pl.fault)
	sol := newSolver(name, a, w)
	x, err := sol.Solve(b)
	switch {
	case err == nil:
		res := a.RelResidual(x, b)
		eff := effectiveTol(sol, tol)
		if res > eff {
			tr.Outcome = Violated
			tr.Detail = fmt.Sprintf("silent wrong answer: residual %.3e > %.1e", res, eff)
			return
		}
		tr.Outcome = Solved
		tr.Residual = res
		tr.Tol = eff
	case typedFailure(err):
		tr.Outcome = TypedError
		tr.Err = err.Error()
	default:
		tr.Outcome = Violated
		tr.Detail = fmt.Sprintf("untyped error: %v", err)
	}
	return
}
