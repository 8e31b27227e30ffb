package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/mat"
	"blocktri/internal/serve"
)

// The serve workload: two closed-loop tenants against serve.New with
// default settings (one worker, P=2) and a cache budget that holds the hot
// pool plus about eight fresh factors.
const (
	tenants      = 2
	blockSize    = 100 // requests per shuffled block; every share below is exact in a block
	nBlocks      = 100
	freshShare   = 5  // requests per block that carry an inline matrix
	wideShare    = 20 // requests per block with wideR columns; the rest have 1
	wideR        = 4
	nFresh       = 64 // pre-generated inline matrices, sent in turn
	rhsPerPool   = 8  // pre-generated right-hand sides per (matrix, width)
	freshInCache = 8.5
	segment      = 100 * time.Millisecond
)

// hotSpec is one registered matrix and its share of every block.
type hotSpec struct {
	id    string
	share int
	build func(rng *rand.Rand) *blocktri.Matrix
}

// hotPool is skewed towards the N=128, M=16 Oscillatory matrix. Every
// answer from it passes the residual check.
var hotPool = []hotSpec{
	{"osc128x16", 45, func(r *rand.Rand) *blocktri.Matrix { return blocktri.Oscillatory(128, 16, r) }},
	{"osc256x16", 20, func(r *rand.Rand) *blocktri.Matrix { return blocktri.Oscillatory(256, 16, r) }},
	{"osc64x8", 20, func(r *rand.Rand) *blocktri.Matrix { return blocktri.Oscillatory(64, 8, r) }},
	{"osc192x12", 10, func(r *rand.Rand) *blocktri.Matrix { return blocktri.Oscillatory(192, 12, r) }},
}

// pdePool are the PDE tenants. They get wrong answers today, because serve
// always factors with ARD and their prefix products grow exponentially, so
// they stay out of the timed pool and run as a fixed probe after it
// (serve.wrong); a fix shows as that count falling to 0.
var pdePool = []struct {
	id    string
	build func() *blocktri.Matrix
}{
	{"poisson64x8", func() *blocktri.Matrix { return blocktri.Poisson2D(8, 64) }},
	{"convdiff64x8", func() *blocktri.Matrix { return blocktri.ConvectionDiffusion(8, 64, 1) }},
}

// request is one pre-generated job: a hot matrix (hot >= 0) or the inline
// matrix fresh, with a right-hand side from the pool.
type request struct {
	hot, fresh int
	b          *mat.Matrix
}

// reply is one finished Submit, kept for the check after the window.
type reply struct {
	req        int64
	x          *mat.Matrix
	err        error
	start, end time.Time
	wall       time.Duration
}

type serveSys struct {
	hot     []*blocktri.Matrix
	pde     []*blocktri.Matrix
	fresh   []*blocktri.Matrix
	rhs     map[*blocktri.Matrix][2][]*mat.Matrix // width 1 and wideR pools
	reqs    []request
	budget  int64
	srv     *serve.Server
	cursor  atomic.Int64
	replies [tenants][]reply
	checks  map[*blocktri.Matrix]*checker

	tally                tally
	shed, expired, other int64
	pdeWrong             int64       // PDE probe answers that did not pass
	flopsErr             error       // first flop count that differed from costmodel
	stats                serve.Stats // summed per-window deltas
	freshLat             []float64   // untraced latency of fresh-matrix requests
	queue, service       []float64   // traced Submit latency - Result.Wall, and Result.Wall
	plainSubmits         int64
	allocs               uint64 // heap allocations over untraced windows
	last                 reply  // most recent passing answer, for the self-test
}

func newServeSys(seed int64) (*serveSys, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &serveSys{rhs: make(map[*blocktri.Matrix][2][]*mat.Matrix), checks: make(map[*blocktri.Matrix]*checker)}
	for i := range s.replies {
		s.replies[i] = make([]reply, 0, 4096)
	}
	for _, h := range hotPool {
		s.hot = append(s.hot, h.build(rng))
	}
	for _, h := range pdePool {
		s.pde = append(s.pde, h.build())
	}
	for i := 0; i < nFresh; i++ {
		s.fresh = append(s.fresh, blocktri.Oscillatory(128, 8, rng))
	}
	for _, a := range append(append(append([]*blocktri.Matrix{}, s.hot...), s.pde...), s.fresh...) {
		var pools [2][]*mat.Matrix
		for w, r := range []int{1, wideR} {
			for k := 0; k < rhsPerPool; k++ {
				pools[w] = append(pools[w], a.RandomRHS(r, rng))
			}
		}
		s.rhs[a] = pools
		s.checks[a] = newChecker(a, wideR)
	}
	var shares []int
	for i, h := range hotPool {
		for k := 0; k < h.share; k++ {
			shares = append(shares, i)
		}
	}
	for k := 0; k < freshShare; k++ {
		shares = append(shares, -1)
	}
	if len(shares) != blockSize {
		return nil, fmt.Errorf("request shares sum to %d, want %d", len(shares), blockSize)
	}
	nextFresh, used := 0, make(map[*blocktri.Matrix]int)
	for blk := 0; blk < nBlocks; blk++ {
		rng.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		wide := rng.Perm(blockSize)
		for k, h := range shares {
			q := request{hot: h, fresh: -1}
			if h < 0 {
				q.fresh = nextFresh % nFresh
				nextFresh++
			}
			a := s.matrix(q)
			w := 0
			if wide[k] < wideShare {
				w = 1
			}
			pool := s.rhs[a][w]
			q.b = pool[used[a]%len(pool)]
			used[a]++
			s.reqs = append(s.reqs, q)
		}
	}
	if err := s.checkPoolFlops(); err != nil {
		return nil, err
	}
	return s, s.sizeBudget()
}

func (s *serveSys) matrix(q request) *blocktri.Matrix {
	if q.hot < 0 {
		return s.fresh[q.fresh]
	}
	return s.hot[q.hot]
}

// checkPoolFlops factors every hot matrix and one fresh one the way the
// service does (ARD on a P=2 world) and checks the solve's flop count
// against costmodel at both widths, before anything is timed.
func (s *serveSys) checkPoolFlops() error {
	w := comm.NewWorld(ranks)
	defer w.Close()
	for _, a := range append(append([]*blocktri.Matrix{}, s.hot...), s.fresh[0]) {
		ard := core.NewARD(a, core.Config{World: w})
		if err := ard.Factor(); err != nil {
			return fmt.Errorf("flop check: %w", err)
		}
		for _, pool := range s.rhs[a] {
			b := pool[0]
			if err := ard.SolveTo(mat.New(b.Rows, b.Cols), b); err != nil {
				return fmt.Errorf("flop check: %w", err)
			}
			if err := checkFlops(ard, a, b.Cols); err != nil && s.flopsErr == nil {
				s.flopsErr = err
			}
		}
	}
	return nil
}

// sizeBudget sizes the cache from the service's own accounting: a set-up
// on the default budget (s.budget is still 0) caches the hot pool, one
// fresh request adds one fresh entry, and the budget holds the hot pool
// plus freshInCache fresh entries.
func (s *serveSys) sizeBudget() error {
	if err := s.setup(nil, -1); err != nil {
		return fmt.Errorf("sizing the cache: %w", err)
	}
	defer s.close()
	hot := s.srv.Stats().CacheBytes
	q := request{hot: -1, fresh: 0, b: s.rhs[s.fresh[0]][0][0]}
	if _, err := s.srv.Submit(context.Background(), s.job("setup", q)); err != nil {
		return fmt.Errorf("sizing the cache: %w", err)
	}
	fresh := s.srv.Stats().CacheBytes - hot
	s.budget = hot + int64(freshInCache*float64(fresh))
	return nil
}

func (s *serveSys) close() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

// setup starts a fresh server, registers the hot pool and makes one
// warm-up request per matrix and width, which factors every matrix.
func (s *serveSys) setup(tr *tracer, root int32) error {
	sp := tr.begin("serve.New", root, 0)
	s.srv = serve.New(serve.Config{CacheBytes: s.budget})
	tr.end(sp)
	for i, a := range s.hot {
		sp := tr.begin("serve.Register", root, int64(i))
		err := s.srv.Register(hotPool[i].id, a)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("register %s: %w", hotPool[i].id, err)
		}
	}
	for i, a := range s.hot {
		for w := range s.rhs[a] {
			job := serve.Job{Tenant: "setup", MatrixID: hotPool[i].id, B: s.rhs[a][w][0]}
			if _, err := s.submit(context.Background(), job, tr, root, int64(i)); err != nil {
				return fmt.Errorf("warm-up %s: %w", hotPool[i].id, err)
			}
		}
	}
	return nil
}

// submit runs one Submit under a serve.Submit span whose serve.service
// child, of length Result.Wall, ends where its parent ends.
func (s *serveSys) submit(ctx context.Context, job serve.Job, tr *tracer, parent int32, op int64) (*serve.Result, error) {
	sp := tr.begin("serve.Submit", parent, op)
	res, err := s.srv.Submit(ctx, job)
	end := time.Now()
	tr.endAt(sp, end)
	if sp >= 0 && res != nil {
		tr.add("serve.service", sp, op, end.Add(-res.Wall), end)
	}
	return res, err
}

func (s *serveSys) job(tenant string, q request) serve.Job {
	if q.hot < 0 {
		return serve.Job{Tenant: tenant, Matrix: s.fresh[q.fresh], B: q.b}
	}
	return serve.Job{Tenant: tenant, MatrixID: hotPool[q.hot].id, B: q.b}
}

// window runs the tenants closed loop for d, then checks every reply off
// the timed path.
func (s *serveSys) window(d time.Duration, tr *tracer, root int32, acc *acct) {
	for i := range s.replies {
		s.replies[i] = s.replies[i][:0]
	}
	st0 := s.srv.Stats()
	m0 := mallocs()
	cpu0, ticks0 := procCPU(), readTicks()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < tenants; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			ctx := context.Background()
			for time.Now().Before(deadline) {
				i := s.cursor.Add(1) - 1
				q := s.reqs[i%int64(len(s.reqs))]
				t0 := time.Now()
				res, err := s.submit(ctx, s.job(tenant, q), tr, root, i)
				r := reply{req: i, err: err, start: t0, end: time.Now()}
				if res != nil {
					r.x, r.wall = res.X, res.Wall
				}
				s.replies[c] = append(s.replies[c], r)
			}
		}(c)
	}
	wg.Wait()
	w := win{wall: time.Since(start).Seconds()}
	settle()
	w.cpu = procCPU() - cpu0
	w.ticks = readTicks().sub(ticks0)
	st1 := s.srv.Stats()
	if root < 0 {
		s.allocs += mallocs() - m0
		s.plainSubmits += int64(len(s.replies[0]) + len(s.replies[1]))
	}
	addStats(&s.stats, st1, st0)

	nseg := max(1, int(d/segment))
	segLen := d / time.Duration(nseg)
	segCols := make([]int64, nseg)
	for c := range s.replies {
		for k := range s.replies[c] {
			r := &s.replies[c][k]
			lat := r.end.Sub(r.start).Seconds()
			acc.calls = append(acc.calls, lat)
			q := s.reqs[r.req%int64(len(s.reqs))]
			if q.hot < 0 && root < 0 {
				s.freshLat = append(s.freshLat, lat)
			}
			if root >= 0 && r.err == nil {
				s.queue = append(s.queue, lat-r.wall.Seconds())
				s.service = append(s.service, r.wall.Seconds())
			}
			if !s.check(q, r) {
				continue
			}
			w.cols += int64(q.b.Cols)
			if k := int(r.end.Sub(start) / segLen); k < nseg {
				segCols[k] += int64(q.b.Cols)
			}
		}
	}
	for _, n := range segCols {
		acc.segs = append(acc.segs, float64(n)/segLen.Seconds())
	}
	acc.wins = append(acc.wins, w)
	for c := range s.replies {
		clear(s.replies[c]) // drop the answers so heap readings see only the server
	}
}

// check classifies one reply: a typed error by class, or an answer whose
// residual passes or fails.
func (s *serveSys) check(q request, r *reply) bool {
	if r.err != nil {
		s.tally.noteErr()
		switch {
		case errors.Is(r.err, serve.ErrOverloaded):
			s.shed++
		case errors.Is(r.err, serve.ErrDeadlineExceeded), errors.Is(r.err, serve.ErrCanceled):
			s.expired++
		default:
			s.other++
		}
		return false
	}
	c := s.checks[s.matrix(q)]
	if !s.tally.note(c.worst(c.views(r.x, q.b))) {
		return false
	}
	s.last = *r
	return true
}

// pdeProbe registers the PDE tenants on the last set-up's server after the
// timed phase and sends each of their pre-generated right-hand sides once,
// one request at a time. It counts the answers that do not pass (wrong, or
// a typed error) and returns how many requests it sent.
func (s *serveSys) pdeProbe() (int64, error) {
	var sent int64
	for i, a := range s.pde {
		id := pdePool[i].id
		if err := s.srv.Register(id, a); err != nil {
			return 0, fmt.Errorf("PDE probe: register %s: %w", id, err)
		}
		c := s.checks[a]
		for _, pool := range s.rhs[a] {
			for _, b := range pool {
				res, err := s.srv.Submit(context.Background(), serve.Job{Tenant: "pde", MatrixID: id, B: b})
				sent++
				if err != nil || c.worst(c.views(res.X, b)) > tol {
					s.pdeWrong++
				}
			}
		}
	}
	return sent, nil
}

// addStats adds the counter deltas b - a into sum.
func addStats(sum *serve.Stats, b, a serve.Stats) {
	sum.Submitted += b.Submitted - a.Submitted
	sum.Solved += b.Solved - a.Solved
	sum.FactorHits += b.FactorHits - a.FactorHits
	sum.Factorizations += b.Factorizations - a.Factorizations
	sum.InflightJoins += b.InflightJoins - a.InflightJoins
	sum.Evictions += b.Evictions - a.Evictions
	sum.CoalescedJobs += b.CoalescedJobs - a.CoalescedJobs
}

// lastAnswer returns the views of the most recent passing answer.
func (s *serveSys) lastAnswer() (*checker, *answer, *mat.Matrix) {
	r := s.last
	if r.x == nil {
		return nil, nil, nil
	}
	q := s.reqs[r.req%int64(len(s.reqs))]
	c := s.checks[s.matrix(q)]
	return c, c.views(r.x, q.b), r.x
}

// probes runs the per-layer probes on the most popular matrix at width 1.
func (s *serveSys) probes(tr *tracer, seed int64, out metrics) error {
	rng := rand.New(rand.NewSource(seed + 1))
	a := s.hot[0]
	if err := kernelProbes(tr, a.M, 1, rng, out); err != nil {
		return err
	}
	if err := solverProbes(tr, a, 1, rng, out); err != nil {
		return err
	}
	w := comm.NewWorld(ranks)
	defer w.Close()
	var fs []core.SolveStats
	for i := 0; i < 5; i++ {
		ard := core.NewARD(a, core.Config{World: w})
		sp := tr.begin("probe.core.Factor", -1, int64(i))
		err := ard.Factor()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("factor probe: %w", err)
		}
		fs = append(fs, ard.FactorStats())
	}
	factorMetrics(fs, a, 1, out)

	// serve.overhead_us: warm 1-column Submit against a bare SolveTo on the
	// same matrix, alternated so both see the same host.
	srv := serve.New(serve.Config{})
	defer srv.Close()
	if err := srv.Register(hotPool[0].id, a); err != nil {
		return fmt.Errorf("overhead probe: %w", err)
	}
	ard := core.NewARD(a, core.Config{World: w})
	b := s.rhs[a][0][0]
	x := mat.New(b.Rows, 1)
	job := serve.Job{Tenant: "probe", MatrixID: hotPool[0].id, B: b}
	ctx := context.Background()
	if _, err := srv.Submit(ctx, job); err != nil {
		return fmt.Errorf("overhead probe: %w", err)
	}
	if err := ard.SolveTo(x, b); err != nil {
		return fmt.Errorf("overhead probe: %w", err)
	}
	if err := checkFlops(ard, a, 1); err != nil && s.flopsErr == nil {
		s.flopsErr = err
	}
	const n = 301
	sub, sol := make([]float64, n), make([]float64, n)
	var err error
	sp := tr.begin("probe.serve.overhead", -1, 0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, e := srv.Submit(ctx, job); e != nil {
			err = e
		}
		t1 := time.Now()
		if e := ard.SolveTo(x, b); e != nil {
			err = e
		}
		sub[i], sol[i] = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("overhead probe: %w", err)
	}
	solveSec := quantile(sol, 0.5)
	out.set("serve.overhead_us", (quantile(sub, 0.5)-solveSec)*1e6, "us")
	st := ard.Stats()
	solveMetrics(solveSec, st.Flops, st.Comm, 1, out)
	allocs, err := solveAllocs(tr, func() error { return ard.SolveTo(x, b) })
	if err != nil {
		return fmt.Errorf("allocation probe: %w", err)
	}
	out.set("core.solve_allocs", allocs, "count")

	var keyErr error
	key := perCall(tr, "probe.serve.MatrixKey", 1, 31, func() {
		if _, e := serve.MatrixKey(s.fresh[0]); e != nil {
			keyErr = e
		}
	})
	if keyErr != nil {
		return fmt.Errorf("key probe: %w", keyErr)
	}
	out.set("serve.key_us", key*1e6, "us")

	st2 := s.stats
	out.set("serve.queue_us_p50", quantile(s.queue, 0.5)*1e6, "us")
	out.set("serve.service_us_p50", quantile(s.service, 0.5)*1e6, "us")
	out.set("serve.service_us_p99", quantile(s.service, 0.99)*1e6, "us")
	out.set("serve.allocs_per_req", float64(s.allocs)/float64(max(s.plainSubmits, 1)), "count")
	out.set("serve.hit_ratio", float64(st2.FactorHits)/float64(max(st2.FactorHits+st2.Factorizations, 1)), "ratio")
	out.set("serve.factorizations", float64(st2.Factorizations), "count")
	out.set("serve.evictions", float64(st2.Evictions), "count")
	out.set("serve.inflight_joins", float64(st2.InflightJoins), "count")
	out.set("serve.coalesced_frac", float64(st2.CoalescedJobs)/float64(max(st2.Solved, 1)), "ratio")
	out.set("serve.fresh_lat_p50_us", quantile(s.freshLat, 0.5)*1e6, "us")
	out.set("serve.wrong", float64(s.pdeWrong), "count")
	out.set("serve.errors_shed", float64(s.shed), "count")
	out.set("serve.errors_expired", float64(s.expired), "count")
	out.set("serve.errors_other", float64(s.other), "count")
	return nil
}
