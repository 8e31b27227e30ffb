// Package perfescape exercises the compiler-evidence escape contract.
//
// The boxing in Step is invisible to any syntactic allocation scan (no
// make, append, new or constructor call appears), but the compiler's
// escape analysis reports it like any other per-call heap allocation.
package perfescape

// sink keeps boxed values reachable so the escapes are real, not
// dead-code-eliminated.
var sink any

// Step boxes its scalar argument — one heap allocation per call on the
// solve path, invisible to any syntactic allocation scan.
//
//perf:hotpath
func Step(x float64) {
	sink = x // want `x escapes to heap in hot-path function Step`
}

// Solve is the annotated entry point; stage is hot only via propagation.
//
//perf:hotpath
func Solve(n int) float64 {
	return stage(n)[0]
}

// stage carries no annotation of its own: the escape inside it is charged
// to the //perf:hotpath root that reaches it. go:noinline keeps the
// diagnostic anchored in stage's body rather than an inlined copy.
//
//go:noinline
func stage(n int) *[8]float64 {
	var buf [8]float64 // want `moved to heap: buf in hot-path function stage \(hot via //perf:hotpath on Solve\)`
	buf[0] = float64(n)
	return &buf
}

// Warm's cold branch delegates its deliberate allocation to grow, which
// opts out of propagation; neither function is reported.
//
//perf:hotpath
func Warm(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = grow(n)
	}
	return dst[:n]
}

// grow allocates by design — it runs only until the pool warms up.
// go:noinline keeps the make from being attributed to Warm's body.
//
//go:noinline
//perf:coldpath
func grow(n int) []float64 {
	return make([]float64, n)
}

// table's one-time allocation is acknowledged in place.
//
//perf:hotpath
func table() *[256]float64 {
	//lint:ignore perfescape the table is built once and cached by the caller
	t := new([256]float64)
	return t
}
