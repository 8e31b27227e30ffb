package main

import (
	"math"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// tol is the largest per-column relative residual an answer may have.
const tol = 1e-8

// checker computes per-column relative residuals ||A x - b|| / ||b|| for
// one matrix and panels up to a given width. Block row i of A x - b is one
// product of the row's blocks, laid side by side, with the contiguous rows
// of x they touch, so a check costs one GEMM per block row and no
// allocation once the operand views exist. It multiplies the original
// blocks, not anything a solver factored.
type checker struct {
	a    *blocktri.Matrix
	rows []*mat.Matrix // block row i: [L_i D_i U_i], corner blocks left out
	lo   []int         // first block row of x that rows[i] multiplies
	r    *mat.Matrix   // M x width scratch
	ss   []float64     // per-column sums of squares
}

func newChecker(a *blocktri.Matrix, width int) *checker {
	c := &checker{a: a, r: mat.New(a.M, width), ss: make([]float64, width)}
	for i := 0; i < a.N; i++ {
		lo, hi := max(i-1, 0), min(i+1, a.N-1)
		row := mat.New(a.M, (hi-lo+1)*a.M)
		for j := lo; j <= hi; j++ {
			blk := a.Diag[i]
			if j < i {
				blk = a.Lower[i]
			} else if j > i {
				blk = a.Upper[i]
			}
			row.View(0, (j-lo)*a.M, a.M, a.M).CopyFrom(blk)
		}
		c.rows = append(c.rows, row)
		c.lo = append(c.lo, lo)
	}
	return c
}

// answer holds the operand views of one (x, b) pair and b's column norms.
type answer struct {
	xs, bs []*mat.Matrix
	bnorm  []float64
	b      *mat.Matrix
}

func (c *checker) views(x, b *mat.Matrix) *answer {
	m := c.a.M
	v := &answer{bnorm: make([]float64, b.Cols), b: b}
	for i, row := range c.rows {
		v.xs = append(v.xs, x.View(c.lo[i]*m, 0, row.Cols, x.Cols))
		v.bs = append(v.bs, b.View(i*m, 0, m, b.Cols))
	}
	v.norms()
	return v
}

// norms recomputes b's column norms after b was rewritten in place.
func (v *answer) norms() {
	clear(v.bnorm)
	b := v.b
	for i := 0; i < b.Rows; i++ {
		for j, e := range b.Data[i*b.Stride : i*b.Stride+b.Cols] {
			v.bnorm[j] += e * e
		}
	}
	for j, s := range v.bnorm {
		v.bnorm[j] = math.Sqrt(s)
	}
}

// worst returns the largest per-column relative residual of the answer;
// a non-finite residual reads +Inf. A full-width answer allocates nothing.
func (c *checker) worst(v *answer) float64 {
	r, ss := c.r, c.ss[:v.b.Cols]
	if v.b.Cols != r.Cols {
		r = r.View(0, 0, r.Rows, v.b.Cols)
	}
	clear(ss)
	for i, row := range c.rows {
		r.CopyFrom(v.bs[i])
		mat.GEMM(1, row, v.xs[i], -1, r)
		for k := 0; k < r.Rows; k++ {
			for j, e := range r.Data[k*r.Stride : k*r.Stride+r.Cols] {
				ss[j] += e * e
			}
		}
	}
	w := 0.0
	for j, s := range ss {
		rel := math.Sqrt(s)
		if v.bnorm[j] > 0 {
			rel /= v.bnorm[j]
		}
		if math.IsNaN(rel) || math.IsInf(rel, 0) {
			return math.Inf(1)
		}
		w = max(w, rel)
	}
	return w
}

// tally counts answers and keeps the worst residual among those that
// passed.
type tally struct {
	attempted, failed, wrong int64
	worst                    float64
}

// note records one checked answer and reports whether it passed.
func (t *tally) note(resid float64) bool {
	t.attempted++
	if resid > tol {
		t.failed++
		t.wrong++
		return false
	}
	t.worst = max(t.worst, resid)
	return true
}

// noteErr records an answer that came back as an error.
func (t *tally) noteErr() {
	t.attempted++
	t.failed++
}

func (t *tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// digits is -log10 of the worst passing residual, capped at 17 for an
// exact answer.
func (t *tally) digits() float64 {
	return -math.Log10(max(t.worst, 1e-17))
}

// selfTest corrupts one entry of a checked answer and confirms the checker
// now rejects it and that ok_ratio falls. It restores the entry.
func selfTest(c *checker, v *answer, x *mat.Matrix, t tally) (float64, bool) {
	k := len(x.Data) / 2
	keep := x.Data[k]
	x.Data[k] += 1e-3 * (1 + math.Abs(keep))
	resid := c.worst(v)
	x.Data[k] = keep
	before := t.okRatio()
	t.note(resid)
	return t.okRatio(), resid > tol && t.okRatio() < before
}
