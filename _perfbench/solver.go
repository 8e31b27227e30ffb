package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/mat"
)

// The panel and step workloads share the paper's headline shape: one
// Oscillatory matrix, N=512 block rows of M=16, factored once by ARD on a
// P=2 world and solved closed loop by a single caller.
const (
	solverN  = 512
	solverM  = 16
	ranks    = 2
	panelR   = 64
	nPanels  = 4  // distinct pre-generated 64-column panels, solved in turn
	nNoise   = 64 // pre-generated perturbations for the step generator
	noiseRel = 0.01
)

// solverSys is the program under test for panel and step: an ARD solver
// rebuilt by every set-up.
type solverSys struct {
	a    *blocktri.Matrix
	r    int
	chk  *checker
	step bool

	panels []*answer     // panel: right-hand sides with their views
	x      *mat.Matrix   // destination of every timed call
	b      *answer       // step: the right-hand side the next call solves
	noise  []*mat.Matrix // step: 1% perturbations, cycled
	b0norm float64
	steps  int

	world *comm.World
	ard   *core.ARD

	factor   []core.SolveStats // FactorStats of every set-up
	flops    int64             // Stats().Flops of one call
	comm     comm.Stats        // Stats().Comm of one call
	flopsErr error             // first flop count that differed from costmodel
	tally    tally
	calls    int // timed calls
}

func newSolverSys(step bool, seed int64) *solverSys {
	rng := rand.New(rand.NewSource(seed))
	s := &solverSys{a: blocktri.Oscillatory(solverN, solverM, rng), r: panelR, step: step}
	if step {
		s.r = 1
	}
	s.chk = newChecker(s.a, s.r)
	rows := solverN * solverM
	s.x = mat.New(rows, s.r)
	if step {
		b0 := mat.Random(rows, 1, rng)
		s.b = s.chk.views(s.x, b0)
		s.b0norm = s.b.bnorm[0]
		for i := 0; i < nNoise; i++ {
			n := mat.Random(rows, 1, rng)
			mat.Scale(n, noiseRel*s.b0norm/mat.NormFrob(n))
			s.noise = append(s.noise, n)
		}
	} else {
		for i := 0; i < nPanels; i++ {
			s.panels = append(s.panels, s.chk.views(s.x, mat.Random(rows, s.r, rng)))
		}
	}
	return s
}

func (s *solverSys) close() {
	if s.world != nil {
		s.world.Close()
		s.world, s.ard = nil, nil
	}
}

// setup builds a fresh world and solver, factors, and makes one warm-up
// solve, so the timed calls find the arenas and message pools grown.
func (s *solverSys) setup(tr *tracer, root int32) error {
	sp := tr.begin("comm.NewWorld", root, 0)
	s.world = comm.NewWorld(ranks)
	tr.end(sp)
	sp = tr.begin("core.NewARD", root, 0)
	s.ard = core.NewARD(s.a, core.Config{World: s.world})
	tr.end(sp)
	sp = tr.begin("core.Factor", root, 0)
	err := s.ard.Factor()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("factor: %w", err)
	}
	sp = tr.begin("core.SolveTo", root, 0)
	err = s.ard.SolveTo(s.x, s.next().b)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	s.factor = append(s.factor, s.ard.FactorStats())
	st := s.ard.Stats()
	s.flops, s.comm = st.Flops, st.Comm
	if err := checkFlops(s.ard, s.a, s.r); err != nil && s.flopsErr == nil {
		s.flopsErr = err
	}
	return nil
}

// next returns the right-hand side of the coming call.
func (s *solverSys) next() *answer {
	if s.step {
		return s.b
	}
	return s.panels[s.calls%nPanels]
}

// advance builds the step workload's next right-hand side: the answer
// rescaled to ||b0|| plus one pre-generated 1% perturbation. Rescaling
// keeps the sequence bounded; workload.NewTimeSteppingStream does not and
// overflows within a hundred steps on this matrix.
func (s *solverSys) advance() {
	x := s.x.Data
	norm := 0.0
	for _, e := range x {
		norm += e * e
	}
	scale := s.b0norm / math.Sqrt(norm)
	n := s.noise[s.steps%nNoise].Data
	b := s.b.b.Data
	for i, e := range x {
		b[i] = e*scale + n[i]
	}
	s.steps++
	s.b.norms()
}

func (s *solverSys) window(d time.Duration, tr *tracer, root int32, acc *acct) {
	var w win
	cpu0, ticks0 := procCPU(), readTicks()
	start := time.Now()
	var checkWall time.Duration
	var checkCPU float64
	for time.Since(start)-checkWall < d {
		v := s.next()
		sp := tr.begin("core.SolveTo", root, int64(s.calls))
		t0 := time.Now()
		err := s.ard.SolveTo(s.x, v.b)
		t1 := time.Now()
		tr.endAt(sp, t1)

		// Off the timed path: check the answer, then build the next input.
		runtime.LockOSThread()
		c0 := threadCPU()
		if err != nil {
			s.tally.noteErr()
		} else if s.tally.note(s.chk.worst(v)) {
			w.cols += int64(s.r)
			acc.calls = append(acc.calls, t1.Sub(t0).Seconds())
		}
		if s.step {
			s.advance()
		}
		s.calls++
		checkCPU += threadCPU() - c0
		runtime.UnlockOSThread()
		checkWall += time.Since(t1)
	}
	w.wall = (time.Since(start) - checkWall).Seconds()
	settle()
	w.cpu = procCPU() - cpu0 - checkCPU
	w.ticks = readTicks().sub(ticks0)
	acc.wins = append(acc.wins, w)
}

// lastAnswer returns the views of the most recent timed call's answer.
// For step, the right-hand side has already advanced, so it re-solves the
// current one first.
func (s *solverSys) lastAnswer() (*answer, error) {
	if s.step {
		if err := s.ard.SolveTo(s.x, s.b.b); err != nil {
			return nil, err
		}
		return s.b, nil
	}
	return s.panels[(s.calls-1+nPanels)%nPanels], nil
}
