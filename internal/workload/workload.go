// Package workload defines the experiment workloads: named problem
// families with seeded, reproducible construction, and a right-hand-side
// generator that models an application producing many independent
// right-hand sides for one matrix.
package workload

import (
	"fmt"
	"math/rand"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// Family names a problem generator.
type Family int

const (
	// RandomDD is the strictly diagonally dominant random family: well
	// conditioned for every solver, but generic enough that recursive
	// doubling's prefix products grow with N (accuracy experiments).
	RandomDD Family = iota
	// Oscillatory has unit-modulus propagation modes: the stable
	// recurrence family used for large-N performance runs.
	Oscillatory
	// Poisson is the 5-point Laplacian on an M x N grid.
	Poisson
	// ConvDiff is the non-symmetric convection-diffusion operator.
	ConvDiff
	// Toeplitz repeats one random diagonally dominant block row.
	Toeplitz
)

// String implements fmt.Stringer for table labels.
func (f Family) String() string {
	switch f {
	case RandomDD:
		return "random-dd"
	case Oscillatory:
		return "oscillatory"
	case Poisson:
		return "poisson-2d"
	case ConvDiff:
		return "convection-diffusion"
	case Toeplitz:
		return "block-toeplitz"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Families lists every family, for sweeps.
var Families = []Family{RandomDD, Oscillatory, Poisson, ConvDiff, Toeplitz}

// Build constructs the family's matrix with N block rows of size M,
// deterministically from seed.
func Build(f Family, n, m int, seed int64) *blocktri.Matrix {
	rng := rand.New(rand.NewSource(seed))
	switch f {
	case RandomDD:
		return blocktri.RandomDiagDominant(n, m, rng)
	case Oscillatory:
		return blocktri.Oscillatory(n, m, rng)
	case Poisson:
		return blocktri.Poisson2D(m, n)
	case ConvDiff:
		return blocktri.ConvectionDiffusion(m, n, 0.5+rng.Float64())
	case Toeplitz:
		return blocktri.BlockToeplitz(n, m, rng)
	default:
		panic(fmt.Sprintf("workload: unknown family %d", int(f)))
	}
}

// RHSStream produces a deterministic sequence of independent random
// right-hand sides for a matrix, modeling an application that performs
// repeated solves.
type RHSStream struct {
	a    *blocktri.Matrix
	rng  *rand.Rand
	cols int
}

// NewRHSStream returns a stream of independent random right-hand sides
// with the given number of columns per solve.
func NewRHSStream(a *blocktri.Matrix, cols int, seed int64) *RHSStream {
	return &RHSStream{a: a, rng: rand.New(rand.NewSource(seed)), cols: cols}
}

// Next returns the next right-hand side.
func (s *RHSStream) Next() *mat.Matrix {
	return mat.Random(s.a.N*s.a.M, s.cols, s.rng)
}

// Spec fully describes one experiment configuration.
type Spec struct {
	Family  Family
	N, M, P int
	// R is the number of right-hand-side columns per solve call.
	R int
	// Solves is the number of sequential solve calls with distinct
	// right-hand sides (the paper's "R distinct right hand sides").
	Solves int
	Seed   int64
}

// Label renders the spec for table captions.
func (sp Spec) Label() string {
	return fmt.Sprintf("%s N=%d M=%d P=%d R=%d solves=%d",
		sp.Family, sp.N, sp.M, sp.P, sp.R, sp.Solves)
}

// Build constructs the spec's matrix.
func (sp Spec) Build() *blocktri.Matrix {
	return Build(sp.Family, sp.N, sp.M, sp.Seed)
}
