// Command perfbench runs one workload of the blocktri benchmark in a single
// process, checks every answer, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// timed phase alternates untraced and traced windows, per-layer probes run
// afterwards, and the metrics are the per-layer ones. README.md describes
// the workloads, the estimators and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"blocktri/internal/mat"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// acct accumulates one kind of window (untraced or traced).
type acct struct {
	calls []float64 // seconds per SolveTo or Submit
	segs  []float64 // serve: passing columns per second in each segment
	wins  []win
}

// win is one timed window. Answer checks are excluded from cpu and wall.
type win struct {
	cols  int64   // columns whose answer passed
	cpu   float64 // process CPU seconds
	wall  float64
	ticks cpuTicks // host /proc/stat ticks
}

func (a *acct) total() win {
	var t win
	for _, w := range a.wins {
		t.cols += w.cols
		t.cpu += w.cpu
		t.wall += w.wall
		t.ticks = t.ticks.add(w.ticks)
	}
	return t
}

// cpuRate is rhs_per_cpu_s: passing columns per process CPU second.
func (a *acct) cpuRate() float64 {
	t := a.total()
	return float64(t.cols) / t.cpu
}

func (t cpuTicks) add(u cpuTicks) cpuTicks {
	return cpuTicks{steal: t.steal + u.steal, total: t.total + u.total}
}

// system is one workload's program under test.
type system interface {
	// setup builds a fresh copy of the system; close releases it.
	setup(tr *tracer, root int32) error
	// window drives closed-loop load for d and checks every answer off
	// the timed path.
	window(d time.Duration, tr *tracer, root int32, acc *acct)
	close()
}

// The timed phase is cut into windows of about windowLen, at least
// minWindows of them. Every window runs on a set-up made just before it, so
// set-ups are spread through the run.
const (
	windowLen  = 625 * time.Millisecond
	minWindows = 11
)

type run struct {
	setups       []float64
	plain, trace acct
	heap0, heap1 uint64
}

// host sums every window, untraced and traced.
func (rn *run) host() win {
	p, t := rn.plain.total(), rn.trace.total()
	return win{cols: p.cols + t.cols, cpu: p.cpu + t.cpu, wall: p.wall + t.wall, ticks: p.ticks.add(t.ticks)}
}

func measure(sys system, seconds float64, traced bool, tr *tracer) (*run, error) {
	total := time.Duration(seconds * float64(time.Second))
	windows := max(minWindows, int((total+windowLen/2)/windowLen))
	d := total / time.Duration(windows)
	rn := &run{}
	for i := 0; i < windows; i++ {
		sys.close()
		if i == windows-1 {
			rn.heap0 = liveHeap()
		} else {
			runtime.GC()
		}
		root := tr.begin("setup", -1, int64(i))
		t0 := time.Now()
		err := sys.setup(tr, root)
		rn.setups = append(rn.setups, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if traced && i%2 == 1 {
			wroot := tr.begin("window", -1, int64(i))
			sys.window(d, tr, wroot, &rn.trace)
			tr.end(wroot)
		} else {
			sys.window(d, nil, -1, &rn.plain)
		}
	}
	rn.heap1 = liveHeap()
	return rn, nil
}

// rate is rhs_per_s. For one caller it is columns per call over the 10th
// percentile time of the calls whose answer passed; for serve, the 90th
// percentile segment rate.
func (a *acct) rate(r int, serving bool) float64 {
	if serving {
		return quantile(a.segs, 0.9)
	}
	return float64(r) / quantile(a.calls, 0.1)
}

func endToEnd(rn *run, rate float64, t tally) metrics {
	m := metrics{}
	m.set("setup_s", quantile(append([]float64(nil), rn.setups...), 0), "s")
	m.set("rhs_per_s", rate, "1/s")
	m.set("rhs_per_cpu_s", rn.plain.cpuRate(), "1/s")
	m.set("heap_mb", (float64(rn.heap1)-float64(rn.heap0))/mib, "MiB")
	m.set("resid_digits", t.digits(), "digits")
	m.set("ok_ratio", t.okRatio(), "ratio")
	return m
}

// hostMetrics are the per-layer client, host and trace readings common to
// every workload.
func hostMetrics(rn *run, r int, serving bool, tr *tracer, out metrics) {
	lat := append([]float64(nil), rn.plain.calls...)
	out.set("client.lat_p50_us", quantile(lat, 0.5)*1e6, "us")
	out.set("client.lat_p99_us", quantile(lat, 0.99)*1e6, "us")
	out.set("client.lat_samples", float64(len(lat)), "count")
	h := rn.host()
	out.set("host.steal_pct", h.ticks.stealPct(), "%")
	out.set("host.cpu_util", h.cpu/h.wall, "cores")
	out.set("trace.overhead_pct", 100*(rn.plain.rate(r, serving)/rn.trace.rate(r, serving)-1), "%")
	out.set("trace.spans", float64(len(tr.recorded())), "count")
}

// serveNames are the serve-layer metrics; the one-caller workloads do not
// exercise them and report 0.
var serveNames = map[string]string{
	"serve.queue_us_p50": "us", "serve.service_us_p50": "us", "serve.service_us_p99": "us",
	"serve.overhead_us": "us", "serve.allocs_per_req": "count", "serve.hit_ratio": "ratio",
	"serve.factorizations": "count", "serve.evictions": "count", "serve.inflight_joins": "count",
	"serve.coalesced_frac": "ratio", "serve.key_us": "us", "serve.fresh_lat_p50_us": "us",
	"serve.wrong": "count", "serve.errors_shed": "count", "serve.errors_expired": "count",
	"serve.errors_other": "count",
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "panel, step or serve")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 alternates traced windows and runs the per-layer probes")
	out := flag.String("out", ".bench_build", "directory the span dump of a traced run goes to")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1
	var tr *tracer
	if traced {
		tr = newTracer(1 << 18)
	}
	var (
		res   result
		notes []string
		err   error
	)
	switch *workload {
	case "panel", "step":
		res, notes, err = runSolver(*workload == "step", *seed, *seconds, traced, tr)
	case "serve":
		res, notes, err = runServe(*seed, *seconds, traced, tr)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want panel, step or serve)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if traced {
		self, err := tr.selfTimes()
		if err != nil {
			res.Correct = false
			notes = append(notes, "trace: "+err.Error())
		}
		notes = append(notes, selfTable(self)...)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.tsv", *workload, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		notes = append(notes, fmt.Sprintf("trace: %d spans (%d dropped) written to %s", len(tr.recorded()), tr.dropped.Load(), path))
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s avx512=%t mat.panel_width=%d\n",
		*workload, *seed, *seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), avx512(), mat.PackALen(1, 1))
	for _, n := range notes {
		fmt.Println("# " + n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runNotes are the header lines every workload prints: set-up times, the
// sample count behind each quantile, host diagnostics and the check.
func runNotes(rn *run, samples string, t tally, self string) []string {
	setups := make([]string, len(rn.setups))
	for i, s := range rn.setups {
		setups[i] = fmt.Sprintf("%.2f", s*1e3)
	}
	h := rn.host()
	return []string{
		"setup_ms " + strings.Join(setups, " "),
		fmt.Sprintf("samples setup_s=%d (min) %s", len(rn.setups), samples),
		fmt.Sprintf("host steal_pct=%.3f cpu_util=%.3f", h.ticks.stealPct(), h.cpu/h.wall),
		fmt.Sprintf("check attempted=%d failed=%d wrong=%d worst_passing_resid=%.3g", t.attempted, t.failed, t.wrong, t.worst),
		"self-test " + self,
	}
}

func selfNote(ok bool, before, after float64) string {
	verdict := "rejected the corrupted answer"
	if !ok {
		verdict = "FAILED: the corrupted answer passed"
	}
	return fmt.Sprintf("%s, ok_ratio %.6f -> %.6f", verdict, before, after)
}

// selfTable lists self time per span name, largest first.
func selfTable(self map[string]float64) []string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := []string{"trace self-time seconds by span name:"}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-28s %.4f", n, self[n]))
	}
	return out
}

func runSolver(step bool, seed int64, seconds float64, traced bool, tr *tracer) (result, []string, error) {
	s := newSolverSys(step, seed)
	defer s.close()
	rn, err := measure(s, seconds, traced, tr)
	if err != nil {
		return result{}, nil, err
	}
	v, err := s.lastAnswer()
	if err != nil {
		return result{}, nil, err
	}
	after, selfOK := selfTest(s.chk, v, s.x, s.tally)
	res := result{Correct: selfOK && s.flopsErr == nil && s.tally.failed == 0, Attempted: s.tally.attempted, Failed: s.tally.failed}
	notes := runNotes(rn, fmt.Sprintf("rhs_per_s=%d (p10 of SolveTo)", len(rn.plain.calls)), s.tally, selfNote(selfOK, s.tally.okRatio(), after))
	if s.flopsErr != nil {
		notes = append(notes, "flops: "+s.flopsErr.Error())
	}
	if !traced {
		res.Metrics = endToEnd(rn, rn.plain.rate(s.r, false), s.tally)
		return res, notes, nil
	}
	m := metrics{}
	rng := rand.New(rand.NewSource(seed + 1))
	if err := kernelProbes(tr, solverM, s.r, rng, m); err != nil {
		return result{}, nil, err
	}
	if err := solverProbes(tr, s.a, s.r, rng, m); err != nil {
		return result{}, nil, err
	}
	allocs, err := solveAllocs(tr, func() error { return s.ard.SolveTo(s.x, s.next().b) })
	if err != nil {
		return result{}, nil, err
	}
	m.set("core.solve_allocs", allocs, "count")
	factorMetrics(s.factor, s.a, s.r, m)
	solveMetrics(quantile(tr.durations("core.SolveTo", "window"), 0.5), s.flops, s.comm, s.r, m)
	for name, unit := range serveNames {
		m.set(name, 0, unit)
	}
	hostMetrics(rn, s.r, false, tr, m)
	res.Metrics = m
	return res, notes, nil
}

func runServe(seed int64, seconds float64, traced bool, tr *tracer) (result, []string, error) {
	s, err := newServeSys(seed)
	if err != nil {
		return result{}, nil, err
	}
	defer s.close()
	rn, err := measure(s, seconds, traced, tr)
	if err != nil {
		return result{}, nil, err
	}
	pdeSent, err := s.pdeProbe()
	if err != nil {
		return result{}, nil, err
	}
	c, v, x := s.lastAnswer()
	selfOK, after := false, s.tally.okRatio()
	if c != nil {
		after, selfOK = selfTest(c, v, x, s.tally)
	}
	res := result{Correct: selfOK && s.flopsErr == nil && s.tally.failed == 0, Attempted: s.tally.attempted, Failed: s.tally.failed}
	notes := runNotes(rn, fmt.Sprintf("rhs_per_s=%d (p90 of %v segments) client_lat=%d", len(rn.plain.segs), segment, len(rn.plain.calls)),
		s.tally, selfNote(selfOK, s.tally.okRatio(), after))
	notes = append(notes, fmt.Sprintf("serve shed=%d expired=%d other=%d hits=%d factorizations=%d evictions=%d coalesced_jobs=%d",
		s.shed, s.expired, s.other, s.stats.FactorHits, s.stats.Factorizations, s.stats.Evictions, s.stats.CoalescedJobs),
		fmt.Sprintf("known defect: %d of %d PDE probe answers wrong (serve.wrong; serve factors Poisson2D and ConvectionDiffusion with ARD)", s.pdeWrong, pdeSent))
	if s.flopsErr != nil {
		notes = append(notes, "flops: "+s.flopsErr.Error())
	}
	if !traced {
		res.Metrics = endToEnd(rn, rn.plain.rate(1, true), s.tally)
		return res, notes, nil
	}
	m := metrics{}
	if err := s.probes(tr, seed, m); err != nil {
		return result{}, nil, err
	}
	hostMetrics(rn, 1, true, tr, m)
	res.Metrics = m
	return res, notes, nil
}
