package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
)

// The costmodel predictions and the solvers' run-time instrumentation are
// written independently; these tests double-enter them against each other.

func TestThomasModelMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []Params{{N: 1, M: 3, R: 2}, {N: 7, M: 2, R: 1}, {N: 16, M: 5, R: 4}} {
		a := blocktri.RandomDiagDominant(tc.N, tc.M, rng)
		th := core.NewThomas(a)
		if err := th.Factor(); err != nil {
			t.Fatal(err)
		}
		if got, want := th.FactorStats().Flops, ThomasFactor(tc).Flops; got != want {
			t.Fatalf("N=%d M=%d: factor flops measured %d model %d", tc.N, tc.M, got, want)
		}
		b := a.RandomRHS(tc.R, rng)
		if _, err := th.Solve(b); err != nil {
			t.Fatal(err)
		}
		if got, want := th.Stats().Flops, ThomasSolve(tc).Flops; got != want {
			t.Fatalf("N=%d M=%d R=%d: solve flops measured %d model %d", tc.N, tc.M, tc.R, got, want)
		}
	}
}

func TestDenseModelMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []Params{{N: 1, M: 3, R: 2}, {N: 7, M: 2, R: 1}, {N: 16, M: 5, R: 4}} {
		a := blocktri.RandomDiagDominant(tc.N, tc.M, rng)
		d := core.NewDense(a)
		if err := d.Factor(); err != nil {
			t.Fatal(err)
		}
		if got, want := d.FactorStats().Flops, DenseFactor(tc).Flops; got != want {
			t.Fatalf("N=%d M=%d: factor flops measured %d model %d", tc.N, tc.M, got, want)
		}
		if got, want := d.FactorStats().MaxRankFlops, DenseFactor(tc).MaxRankFlops; got != want {
			t.Fatalf("N=%d M=%d: factor max-rank flops measured %d model %d", tc.N, tc.M, got, want)
		}
		b := a.RandomRHS(tc.R, rng)
		if _, err := d.Solve(b); err != nil {
			t.Fatal(err)
		}
		if got, want := d.Stats().Flops, DenseSolve(tc).Flops; got != want {
			t.Fatalf("N=%d M=%d R=%d: solve flops measured %d model %d", tc.N, tc.M, tc.R, got, want)
		}
		if got, want := d.Stats().MaxRankFlops, DenseSolve(tc).MaxRankFlops; got != want {
			t.Fatalf("N=%d M=%d R=%d: solve max-rank flops measured %d model %d", tc.N, tc.M, tc.R, got, want)
		}
	}
}

func TestRDModelMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []Params{
		{N: 1, M: 3, P: 1, R: 2}, {N: 8, M: 2, P: 1, R: 1}, {N: 8, M: 2, P: 4, R: 3},
		{N: 13, M: 3, P: 4, R: 2}, {N: 16, M: 2, P: 5, R: 1}, {N: 3, M: 2, P: 8, R: 2},
	} {
		a := blocktri.RandomDiagDominant(tc.N, tc.M, rng)
		rd := core.NewRD(a, core.Config{World: comm.NewWorld(tc.P)})
		b := a.RandomRHS(tc.R, rng)
		if _, err := rd.Solve(b); err != nil {
			t.Fatal(err)
		}
		model := RDSolve(tc)
		if got := rd.Stats().Flops; got != model.Flops {
			t.Fatalf("%+v: RD flops measured %d model %d", tc, got, model.Flops)
		}
		if got := rd.Stats().MaxRankFlops; got != model.MaxRankFlops {
			t.Fatalf("%+v: RD max-rank flops measured %d model %d", tc, got, model.MaxRankFlops)
		}
	}
}

func TestARDModelMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []Params{
		{N: 1, M: 3, P: 1, R: 2}, {N: 8, M: 2, P: 1, R: 1}, {N: 8, M: 2, P: 4, R: 3},
		{N: 13, M: 3, P: 4, R: 2}, {N: 16, M: 2, P: 5, R: 1}, {N: 3, M: 2, P: 8, R: 2},
	} {
		a := blocktri.RandomDiagDominant(tc.N, tc.M, rng)
		ard := core.NewARD(a, core.Config{World: comm.NewWorld(tc.P)})
		if err := ard.Factor(); err != nil {
			t.Fatal(err)
		}
		fModel := ARDFactor(tc)
		if got := ard.FactorStats().Flops; got != fModel.Flops {
			t.Fatalf("%+v: ARD factor flops measured %d model %d", tc, got, fModel.Flops)
		}
		if got := ard.FactorStats().MaxRankFlops; got != fModel.MaxRankFlops {
			t.Fatalf("%+v: ARD factor max-rank measured %d model %d", tc, got, fModel.MaxRankFlops)
		}
		b := a.RandomRHS(tc.R, rng)
		if _, err := ard.Solve(b); err != nil {
			t.Fatal(err)
		}
		sModel := ARDSolve(tc)
		if got := ard.Stats().Flops; got != sModel.Flops {
			t.Fatalf("%+v: ARD solve flops measured %d model %d", tc, got, sModel.Flops)
		}
		if got := ard.Stats().MaxRankFlops; got != sModel.MaxRankFlops {
			t.Fatalf("%+v: ARD solve max-rank measured %d model %d", tc, got, sModel.MaxRankFlops)
		}
	}
}

// Property: the model matches measurement for arbitrary configurations.
func TestModelMatchesMeasuredProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tc := Params{N: 1 + rng.Intn(20), M: 1 + rng.Intn(4), P: 1 + rng.Intn(6), R: 1 + rng.Intn(3)}
		a := blocktri.RandomDiagDominant(tc.N, tc.M, rng)
		b := a.RandomRHS(tc.R, rng)
		rd := core.NewRD(a, core.Config{World: comm.NewWorld(tc.P)})
		if _, err := rd.Solve(b); err != nil {
			return false
		}
		if rd.Stats().Flops != RDSolve(tc).Flops {
			return false
		}
		ard := core.NewARD(a, core.Config{World: comm.NewWorld(tc.P)})
		if err := ard.Factor(); err != nil {
			return false
		}
		if ard.FactorStats().Flops != ARDFactor(tc).Flops {
			return false
		}
		if _, err := ard.Solve(b); err != nil {
			return false
		}
		return ard.Stats().Flops == ARDSolve(tc).Flops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAsymptoticShapes(t *testing.T) {
	// ARD solve must be ~M cheaper than RD solve per call at R=1.
	base := Params{N: 256, M: 16, P: 8, R: 1}
	rd := RDSolve(base).MaxRankFlops
	as := ARDSolve(base).MaxRankFlops
	ratio := float64(rd) / float64(as)
	if ratio < float64(base.M)/2 || ratio > 8*float64(base.M) {
		t.Fatalf("RD/ARD per-solve ratio %.1f not O(M=%d)", ratio, base.M)
	}
	// Doubling N ~doubles every N-dominated cost.
	big := base
	big.N *= 2
	if r := float64(RDSolve(big).Flops) / float64(RDSolve(base).Flops); r < 1.8 || r > 2.2 {
		t.Fatalf("RD flops not ~linear in N: ratio %v", r)
	}
	// Doubling M should scale RD by ~8 (M^3) and ARD solve by ~4 (M^2).
	bigM := base
	bigM.M *= 2
	if r := float64(RDSolve(bigM).Flops) / float64(RDSolve(base).Flops); r < 6 || r > 10 {
		t.Fatalf("RD flops not ~M^3: ratio %v", r)
	}
	if r := float64(ARDSolve(bigM).Flops) / float64(ARDSolve(base).Flops); r < 3 || r > 5 {
		t.Fatalf("ARD solve flops not ~M^2: ratio %v", r)
	}
	// ARD solve scales linearly in R.
	bigR := base
	bigR.R = 8
	if r := float64(ARDSolve(bigR).Flops) / float64(ARDSolve(base).Flops); r < 6 || r > 9 {
		t.Fatalf("ARD solve flops not ~linear in R: ratio %v", r)
	}
}

func TestPredictedSpeedupShape(t *testing.T) {
	p := Params{N: 512, M: 16, P: 8, R: 1}
	s1 := PredictedSpeedup(p, 1)
	if s1 > 1.05 {
		t.Fatalf("speedup at R=1 should be <= ~1, got %v", s1)
	}
	s16 := PredictedSpeedup(p, 16)
	s256 := PredictedSpeedup(p, 256)
	s4096 := PredictedSpeedup(p, 4096)
	if !(s16 > 2*s1 && s256 > s16 && s4096 > s256) {
		t.Fatalf("speedup not increasing: %v %v %v %v", s1, s16, s256, s4096)
	}
	// Saturation: the speedup approaches the RD/ARD per-solve ratio ~O(M).
	limit := float64(RDSolve(p).MaxRankFlops) / float64(ARDSolve(p).MaxRankFlops)
	if s4096 > limit {
		t.Fatalf("speedup %v exceeded its asymptote %v", s4096, limit)
	}
	if s4096 < 0.8*limit {
		t.Fatalf("speedup %v far from asymptote %v at R=4096", s4096, limit)
	}
}

func TestMachineTime(t *testing.T) {
	mc := Machine{FlopsPerSec: 1e9, Net: comm.CostModel{Alpha: 1e-6, Beta: 1e-10}}
	c := Cost{MaxRankFlops: 1e9, Rounds: 2, ScanWords: 1000}
	want := 1.0 + 2e-6 + 1000*8*1e-10
	if got := mc.Time(c); got < want*0.999 || got > want*1.001 {
		t.Fatalf("Time = %v want %v", got, want)
	}
}

func TestScanWordsARDBelowRD(t *testing.T) {
	p := Params{N: 256, M: 16, P: 8, R: 1}
	if ARDSolve(p).ScanWords*4 >= RDSolve(p).ScanWords {
		t.Fatalf("ARD scan words %d not well below RD %d",
			ARDSolve(p).ScanWords, RDSolve(p).ScanWords)
	}
	if RDSolve(p).Rounds != 3 || ARDSolve(p).Rounds != 3 {
		t.Fatalf("rounds should be log2(8)=3")
	}
}

func TestSpikeModelMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []Params{
		{N: 8, M: 2, P: 1, R: 2}, {N: 8, M: 2, P: 2, R: 1}, {N: 13, M: 3, P: 4, R: 2},
		{N: 20, M: 2, P: 5, R: 3}, {N: 32, M: 4, P: 8, R: 1},
	} {
		a := blocktri.RandomDiagDominant(tc.N, tc.M, rng)
		sp := core.NewSpike(a, core.Config{World: comm.NewWorld(tc.P)})
		if err := sp.Factor(); err != nil {
			t.Fatal(err)
		}
		if got, want := sp.FactorStats().Flops, SpikeFactor(tc).Flops; got != want {
			t.Fatalf("%+v: spike factor flops measured %d model %d", tc, got, want)
		}
		b := a.RandomRHS(tc.R, rng)
		if _, err := sp.Solve(b); err != nil {
			t.Fatal(err)
		}
		if got, want := sp.Stats().Flops, SpikeSolve(tc).Flops; got != want {
			t.Fatalf("%+v: spike solve flops measured %d model %d", tc, got, want)
		}
	}
}
