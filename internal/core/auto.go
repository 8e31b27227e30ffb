package core

import (
	"fmt"
	"math"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// Auto selects the right solver for a matrix automatically, using the
// conditioning diagnostic this library exposes:
//
//  1. It factors with ARD (the fastest per-solve algorithm) and inspects
//     the PrefixGrowth diagnostic. If growth*eps is safely below the
//     accuracy target, ARD is used.
//  2. Otherwise it falls back to SPIKE (stable, still factored and
//     parallel) when the partition constraint N >= 2P holds.
//  3. Otherwise it falls back to sequential block Thomas.
//
// The decision is made once, at Factor time; Reason reports it. This is
// the recommended entry point for callers who do not know their matrix's
// recurrence behavior in advance.
type Auto struct {
	base
	cfg    Config
	opt    AutoOptions
	chosen Solver
	reason string
}

// AutoOptions tunes the selection policy.
type AutoOptions struct {
	// MaxGrowth is the largest acceptable PrefixGrowth for ARD; the
	// expected relative error is about MaxGrowth*1e-16. Default 1e10
	// (~1e-6 expected error, recoverable to machine precision by
	// iterative refinement).
	MaxGrowth float64
}

func (o AutoOptions) maxGrowth() float64 {
	if o.MaxGrowth > 0 {
		return o.MaxGrowth
	}
	return 1e10
}

// NewAuto returns an automatic solver for a over cfg's world.
func NewAuto(a *blocktri.Matrix, cfg Config, opt AutoOptions) *Auto {
	s := &Auto{cfg: cfg, opt: opt}
	s.init(a, nil, s)
	return s
}

// Name implements Solver; before Factor it reports the pending state.
func (s *Auto) Name() string {
	if s.chosen == nil {
		return "auto(unfactored)"
	}
	return "auto(" + s.chosen.Name() + ")"
}

// Reason explains the selection after Factor.
func (s *Auto) Reason() string { return s.reason }

// Chosen returns the underlying solver after Factor (nil before).
func (s *Auto) Chosen() Solver { return s.chosen }

// factor runs the selection policy; the factor stats are the chosen
// solver's, with the wall time of the whole selection.
func (s *Auto) factor() error {
	// Cheap pre-screen: if the sampled per-row growth rate already puts
	// rate^N orders of magnitude past the budget, skip ARD's O(M^3)
	// factor entirely. A 1000x margin absorbs the heuristic's slack; the
	// authoritative check below still guards the borderline cases.
	rate := EstimateGrowth(s.a, 8)
	predicted := math.Pow(rate, float64(s.a.N))
	if predicted > 1e3*s.opt.maxGrowth() {
		s.reason = fmt.Sprintf("ARD pre-screened out: estimated growth %.3g (rate %.3g over N=%d) far exceeds budget %.3g",
			predicted, rate, s.a.N, s.opt.maxGrowth())
	} else {
		ard := NewARD(s.a, s.cfg)
		err := ard.Factor()
		switch {
		case err == nil && ard.FactorStats().PrefixGrowth <= s.opt.maxGrowth():
			s.reason = fmt.Sprintf("ARD: prefix growth %.3g within budget %.3g",
				ard.FactorStats().PrefixGrowth, s.opt.maxGrowth())
			s.choose(ard)
			return nil
		case err == nil:
			s.reason = fmt.Sprintf("ARD rejected: prefix growth %.3g exceeds budget %.3g",
				ard.FactorStats().PrefixGrowth, s.opt.maxGrowth())
		default:
			s.reason = fmt.Sprintf("ARD rejected: %v", err)
		}
	}

	world := s.cfg.world()
	if world.P > 1 && s.a.N >= 2*world.P {
		spike := NewSpike(s.a, s.cfg)
		if err := spike.Factor(); err == nil {
			s.reason += "; SPIKE selected"
			s.choose(spike)
			return nil
		} else {
			s.reason += fmt.Sprintf("; SPIKE rejected: %v", err)
		}
	} else if world.P > 1 {
		s.reason += fmt.Sprintf("; SPIKE unavailable (N=%d < 2P=%d)", s.a.N, 2*world.P)
	}

	th := NewThomas(s.a)
	if err := th.Factor(); err != nil {
		return fmt.Errorf("core: auto: no solver applicable (last: %w); %s", err, s.reason)
	}
	s.reason += "; Thomas selected"
	s.choose(th)
	return nil
}

// choose records the factored solver the policy selected.
func (s *Auto) choose(chosen Solver) {
	s.chosen = chosen
	s.factorStats = chosen.FactorStats()
}

// solve delegates to the chosen solver and reports its stats.
func (s *Auto) solve(x, b *mat.Matrix) error {
	if err := s.chosen.SolveTo(x, b); err != nil {
		return err
	}
	s.solveStats = s.chosen.Stats()
	return nil
}
