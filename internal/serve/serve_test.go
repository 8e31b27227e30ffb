package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

func testMatrix(seed int64, n, m int) *blocktri.Matrix {
	return blocktri.RandomDiagDominant(n, m, rand.New(rand.NewSource(seed)))
}

func testRHS(a *blocktri.Matrix, seed int64, cols int) *mat.Matrix {
	return a.RandomRHS(cols, rand.New(rand.NewSource(seed)))
}

func checkSolution(t *testing.T, a *blocktri.Matrix, res *Result, b *mat.Matrix) {
	t.Helper()
	if res == nil || res.X == nil {
		t.Fatal("nil result")
	}
	if r := a.RelResidual(res.X, b); r > 1e-7 {
		t.Fatalf("relative residual %g too large", r)
	}
}

// TestSolveColdThenWarm: the first solve factors, the second reuses the
// cached factor — the amortization the service exists for.
func TestSolveColdThenWarm(t *testing.T) {
	srv := New(Config{P: 2, Seed: 1})
	defer srv.Close()
	a := testMatrix(3, 16, 3)
	b := testRHS(a, 4, 2)

	res, err := srv.Submit(context.Background(), Job{Tenant: "t1", Matrix: a, B: b})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if res.Warm {
		t.Fatal("first solve reported a warm factor")
	}
	checkSolution(t, a, res, b)

	res, err = srv.Submit(context.Background(), Job{Tenant: "t2", Matrix: a.Clone(), B: b})
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	if !res.Warm {
		t.Fatal("second solve of an identical matrix (different tenant) missed the cache")
	}
	checkSolution(t, a, res, b)

	st := srv.Stats()
	if st.Factorizations != 1 || st.FactorHits != 1 {
		t.Fatalf("stats %+v: want exactly one factorization and one hit", st)
	}
}

// TestRegisterAndSolveByID: registered matrices are addressable by id, and
// an unknown id is a typed error.
func TestRegisterAndSolveByID(t *testing.T) {
	srv := New(Config{P: 2})
	defer srv.Close()
	a := testMatrix(5, 12, 2)
	if err := srv.Register("poisson", a); err != nil {
		t.Fatalf("register: %v", err)
	}
	b := testRHS(a, 6, 1)
	res, err := srv.Submit(context.Background(), Job{MatrixID: "poisson", B: b})
	if err != nil {
		t.Fatalf("submit by id: %v", err)
	}
	checkSolution(t, a, res, b)

	if _, err := srv.Submit(context.Background(), Job{MatrixID: "nope", B: b}); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("unknown id error = %v, want ErrUnknownMatrix", err)
	}
	if _, err := srv.Submit(context.Background(), Job{MatrixID: "poisson", B: mat.New(3, 1)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("shape mismatch error = %v, want ErrBadRequest", err)
	}
	if _, err := srv.Submit(context.Background(), Job{Tenant: "x", B: b}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("no matrix error = %v, want ErrBadRequest", err)
	}
}

// TestConcurrentSameMatrixSingleFactor: a burst of concurrent submits for
// one uncached matrix performs exactly one factorization — requests are
// deduped by the cache and coalesced into panels behind it.
func TestConcurrentSameMatrixSingleFactor(t *testing.T) {
	srv := New(Config{P: 2, Seed: 2})
	defer srv.Close()
	a := testMatrix(7, 16, 2)
	const jobs = 12
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := testRHS(a, int64(100+i), 1)
			res, err := srv.Submit(context.Background(), Job{Tenant: "t", Matrix: a, B: b})
			if err == nil {
				if r := a.RelResidual(res.X, b); r > 1e-7 {
					err = errors.New("bad residual")
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.Factorizations != 1 {
		t.Fatalf("%d factorizations for one matrix under concurrency, want 1 (stats %+v)", st.Factorizations, st)
	}
}

// TestCoalescing: jobs for the same matrix queued behind a busy worker are
// solved as one multi-RHS panel. The M=2 case stays below the FMA kernels'
// reach (k >= 8); at M=16 every product of the solve runs on them, and a
// coalesced job's answer must be bit for bit the answer of the same right-
// hand side submitted alone.
func TestCoalescing(t *testing.T) {
	t.Run("M=2", func(t *testing.T) { testCoalescing(t, testMatrix(9, 16, 2), 2) })
	t.Run("M=16", func(t *testing.T) {
		testCoalescing(t, blocktri.Oscillatory(16, 16, rand.New(rand.NewSource(9))), 2)
	})
}

func testCoalescing(t *testing.T, a *blocktri.Matrix, cols int) {
	srv := New(Config{P: 2, MaxPanel: 64})
	defer srv.Close()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.testServeHook = func([]*task) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}
	const jobs = 6
	var wg sync.WaitGroup
	results := make([]*Result, jobs)
	errs := make([]error, jobs)
	bs := make([]*mat.Matrix, jobs)
	for i := 0; i < jobs; i++ {
		bs[i] = testRHS(a, int64(200+i), cols)
	}
	submit := func(i int) {
		defer wg.Done()
		results[i], errs[i] = srv.Submit(context.Background(), Job{Tenant: "t", Matrix: a, B: bs[i]})
	}
	wg.Add(1)
	go submit(0)
	<-entered // worker is parked on job 0; the rest will queue up
	for i := 1; i < jobs; i++ {
		wg.Add(1)
		go submit(i)
	}
	waitQueued(t, srv, jobs-1)
	close(gate)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		checkSolution(t, a, results[i], bs[i])
	}
	coalesced := 0
	for _, r := range results {
		if r.Coalesced > 1 {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Fatalf("no job rode a coalesced panel (stats %+v)", srv.Stats())
	}
	if st := srv.Stats(); st.CoalescedJobs < 1 || st.Factorizations != 1 {
		t.Fatalf("stats %+v: want coalesced jobs and a single factorization", st)
	}
	if !mat.FMAKernels() || a.M < 8 {
		return
	}
	for i, r := range results {
		if r.Coalesced < 2 {
			continue
		}
		alone, err := srv.Submit(context.Background(), Job{Tenant: "t", Matrix: a, B: bs[i]})
		if err != nil {
			t.Fatalf("job %d resubmitted alone: %v", i, err)
		}
		if alone.Coalesced != 1 {
			t.Fatalf("job %d resubmitted alone rode a panel of %d jobs", i, alone.Coalesced)
		}
		if !r.X.Equal(alone.X) {
			t.Errorf("job %d: coalesced answer differs bitwise from the answer solved alone", i)
		}
	}
}

// waitQueued polls until the admission queue holds want jobs.
func waitQueued(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Stats().Queued >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (stats %+v)", want, srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedding: beyond QueueDepth, submits are shed with a typed
// *OverloadError carrying a retry-after hint — and the shed request never
// disturbs queued or cached work.
func TestOverloadShedding(t *testing.T) {
	srv := New(Config{P: 2, QueueDepth: 1})
	defer srv.Close()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.testServeHook = func([]*task) {
		once.Do(func() { close(entered) })
		<-gate
	}
	a := testMatrix(11, 12, 2)
	b := testRHS(a, 12, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Submit(context.Background(), Job{Tenant: "a", Matrix: a, B: b}); err != nil {
			t.Errorf("job 0: %v", err)
		}
	}()
	<-entered // worker parked; queue is empty again
	a2 := testMatrix(13, 12, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Submit(context.Background(), Job{Tenant: "b", Matrix: a2, B: b}); err != nil {
			t.Errorf("job 1: %v", err)
		}
	}()
	waitQueued(t, srv, 1) // job 1 fills the queue to its bound
	_, err := srv.Submit(context.Background(), Job{Tenant: "c", Matrix: testMatrix(15, 12, 2), B: b})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound submit error = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error %v carries no usable retry-after", err)
	}
	close(gate)
	wg.Wait()
	if st := srv.Stats(); st.Shed != 1 || st.Solved != 2 {
		t.Fatalf("stats %+v: want 1 shed, 2 solved", st)
	}
}

// TestTenantFairness: with tenant A's flood queued ahead of tenant B's few
// jobs, round-robin draining interleaves them — B finishes long before A's
// tail instead of waiting behind the whole flood.
func TestTenantFairness(t *testing.T) {
	srv := New(Config{P: 2})
	defer srv.Close()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var mu sync.Mutex
	var served []string
	first := true
	srv.testServeHook = func(batch []*task) {
		mu.Lock()
		if first {
			first = false
			mu.Unlock()
			close(entered)
			<-gate
			return
		}
		served = append(served, batch[0].tenant)
		mu.Unlock()
	}
	// Distinct matrices per job so coalescing cannot merge the queue.
	const aJobs, bJobs = 6, 3
	var wg sync.WaitGroup
	submit := func(tenant string, seed int64) {
		defer wg.Done()
		a := testMatrix(seed, 8, 2)
		b := testRHS(a, seed+1000, 1)
		if _, err := srv.Submit(context.Background(), Job{Tenant: tenant, Matrix: a, B: b}); err != nil {
			t.Errorf("tenant %s: %v", tenant, err)
		}
	}
	wg.Add(1)
	go submit("A", 500)
	<-entered
	for i := 0; i < aJobs; i++ {
		wg.Add(1)
		go submit("A", int64(600+i))
	}
	waitQueued(t, srv, aJobs)
	for i := 0; i < bJobs; i++ {
		wg.Add(1)
		go submit("B", int64(700+i))
	}
	waitQueued(t, srv, aJobs+bJobs)
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(served) != aJobs+bJobs {
		t.Fatalf("served %d batches, want %d (%v)", len(served), aJobs+bJobs, served)
	}
	// All of B's jobs must be drained within the first 2*bJobs pops: strict
	// round-robin alternates A and B while both have queued work.
	bSeen := 0
	for i := 0; i < 2*bJobs && i < len(served); i++ {
		if served[i] == "B" {
			bSeen++
		}
	}
	if bSeen != bJobs {
		t.Fatalf("only %d/%d of tenant B's jobs served in the first %d slots; drain order %v is not fair",
			bSeen, bJobs, 2*bJobs, served)
	}
}

// TestDeadlineWhileQueued: a job whose deadline passes while it waits
// behind a stuck worker fails with ErrDeadlineExceeded, and the worker
// skips its corpse instead of solving for nobody.
func TestDeadlineWhileQueued(t *testing.T) {
	srv := New(Config{P: 2})
	defer srv.Close()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.testServeHook = func([]*task) {
		once.Do(func() { close(entered) })
		<-gate
	}
	a := testMatrix(17, 12, 2)
	b := testRHS(a, 18, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Submit(context.Background(), Job{Tenant: "a", Matrix: a, B: b})
	}()
	<-entered
	start := time.Now()
	_, err := srv.Submit(context.Background(), Job{
		Tenant: "b", Matrix: testMatrix(19, 12, 2), B: b,
		Deadline: time.Now().Add(50 * time.Millisecond),
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued-past-deadline error = %v, want ErrDeadlineExceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", e)
	}
	close(gate)
	wg.Wait()
}

// TestSubmitCancel: canceling the submitting context returns ErrCanceled.
func TestSubmitCancel(t *testing.T) {
	srv := New(Config{P: 2})
	defer srv.Close()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.testServeHook = func([]*task) {
		once.Do(func() { close(entered) })
		<-gate
	}
	a := testMatrix(21, 12, 2)
	b := testRHS(a, 22, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Submit(context.Background(), Job{Tenant: "a", Matrix: a, B: b})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, err := srv.Submit(ctx, Job{Tenant: "b", Matrix: testMatrix(23, 12, 2), B: b})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled submit error = %v, want ErrCanceled", err)
	}
	close(gate)
	wg.Wait()
}

// TestRetryAfterInjectedCrash: a rank crash during the first factor run is
// retried and the job still completes correctly.
func TestRetryAfterInjectedCrash(t *testing.T) {
	srv := New(Config{
		P: 2, Seed: 5, MaxRetries: 3,
		FaultPlan: &comm.FaultPlan{Seed: 41, CrashRank: 1, CrashAtOp: 1},
	})
	defer srv.Close()
	a := testMatrix(25, 16, 2)
	b := testRHS(a, 26, 2)
	res, err := srv.Submit(context.Background(), Job{Tenant: "t", Matrix: a, B: b})
	if err != nil {
		t.Fatalf("submit under crash plan: %v", err)
	}
	checkSolution(t, a, res, b)
	if res.Retries == 0 && srv.Stats().Retries == 0 {
		t.Fatalf("crash plan did not exercise the retry path (stats %+v)", srv.Stats())
	}
}

// TestBoostedDegradation: a matrix whose super-diagonal block is exactly
// singular cannot be ARD-factored; the service degrades through
// core.SolveBoosted and still answers, without caching the failed factor.
func TestBoostedDegradation(t *testing.T) {
	srv := New(Config{P: 2, RefineIters: 8})
	defer srv.Close()
	a := testMatrix(27, 8, 2)
	a.Upper[1].Zero() // recursive doubling cannot invert this block
	b := testRHS(a, 28, 1)
	res, err := srv.Submit(context.Background(), Job{Tenant: "t", Matrix: a, B: b})
	if err != nil {
		t.Fatalf("submit of boost-requiring matrix: %v", err)
	}
	if !res.Boosted || !res.Boost.Boosted {
		t.Fatalf("result %+v did not go through the boost ladder", res)
	}
	if r := a.RelResidual(res.X, b); r > 1e-6 {
		t.Fatalf("boosted residual %g too large (report %+v)", r, res.Boost)
	}
	key, err := MatrixKey(a)
	if err != nil {
		t.Fatal(err)
	}
	if srv.FactorResident(key) {
		t.Fatal("a factorization that failed must not be cached")
	}
	if st := srv.Stats(); st.Boosted != 1 {
		t.Fatalf("stats %+v: want Boosted=1", st)
	}
}

// TestCircuitBreaker: repeated factor failures open the matrix's breaker;
// further submits are rejected with *CircuitError until the cooldown, after
// which a successful probe closes it again.
func TestCircuitBreaker(t *testing.T) {
	srv := New(Config{P: 2, BreakerThreshold: 3, BreakerCooldown: 80 * time.Millisecond})
	defer srv.Close()
	a := testMatrix(29, 12, 2)
	b := testRHS(a, 30, 1)
	key, err := MatrixKey(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		srv.breakerFail(key)
	}
	_, err = srv.Submit(context.Background(), Job{Tenant: "t", Matrix: a, B: b})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker submit error = %v, want ErrCircuitOpen", err)
	}
	var ce *CircuitError
	if !errors.As(err, &ce) || ce.Failures != 3 || ce.RetryAfter <= 0 {
		t.Fatalf("circuit error %v lacks failure count or cooldown", err)
	}
	time.Sleep(100 * time.Millisecond) // cooldown expires; probe admitted
	res, err := srv.Submit(context.Background(), Job{Tenant: "t", Matrix: a, B: b})
	if err != nil {
		t.Fatalf("post-cooldown probe: %v", err)
	}
	checkSolution(t, a, res, b)
	if err := srv.breakerCheck(key); err != nil {
		t.Fatalf("breaker still open after a successful probe: %v", err)
	}
	if st := srv.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("stats %+v: want BreakerOpens=1", st)
	}
}

// TestCloseFailsQueuedJobs: Close drains the service; jobs still queued get
// ErrClosed, later submits get ErrClosed, and worker worlds shut down.
func TestCloseFailsQueuedJobs(t *testing.T) {
	srv := New(Config{P: 2})
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.testServeHook = func([]*task) {
		once.Do(func() { close(entered) })
		<-gate
	}
	a := testMatrix(31, 12, 2)
	b := testRHS(a, 32, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Submit(context.Background(), Job{Tenant: "a", Matrix: a, B: b})
	}()
	<-entered
	queuedErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := srv.Submit(context.Background(), Job{Tenant: "b", Matrix: testMatrix(33, 12, 2), B: b})
		queuedErr <- err
	}()
	waitQueued(t, srv, 1)
	go func() { time.Sleep(10 * time.Millisecond); close(gate) }()
	srv.Close()
	if err := <-queuedErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued job at shutdown got %v, want ErrClosed", err)
	}
	if _, err := srv.Submit(context.Background(), Job{Tenant: "c", Matrix: a, B: b}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit got %v, want ErrClosed", err)
	}
	wg.Wait()
}
