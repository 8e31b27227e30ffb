// Package serve is the fault-hardened multi-tenant solver service: the
// operational layer that turns the ARD factor/solve split into an
// amortization engine.
//
// Architecture. A Server owns a small pool of workers; each worker owns one
// comm.World and serializes all runs on it, because a factored core.ARD is
// bound to the world that factored it (its per-rank state is sized and laid
// out for that world's P). Jobs are sharded to workers by matrix content
// key, so every solve against a cached factor lands on the world that built
// the factor. Within a worker, queued jobs are drained with per-tenant
// round-robin — one tenant flooding the queue delays its own tail, not the
// other tenants — and jobs against the same matrix are coalesced into one
// multi-RHS panel so the BLAS-3 solve path does the work of many requests
// in one pass.
//
// Failure ladder, in admission order:
//
//	bounded queue  -> *OverloadError (shed, with retry-after)
//	open breaker   -> *CircuitError  (matrix known-bad, cooldown remaining)
//	per-job deadline -> context pushed into comm runs; ranks unwind
//	injected faults  -> retry with jittered exponential backoff
//	singular pivots  -> core.SolveBoosted graceful degradation
//
// Every request terminates with a correct solution or a typed error; the
// chaos harness in internal/chaos drives this contract under concurrent
// tenants and injected backend faults.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/mat"
)

// Config sizes the service. The zero value of any field selects a sane
// default (see withDefaults); a zero Resilience is replaced with a tight
// fault-recovery profile suitable for a service that must answer within
// deadlines rather than wait indefinitely.
type Config struct {
	// Workers is the number of solver workers; each owns one comm.World.
	Workers int
	// P is the rank count of each worker's world.
	P int
	// CacheBytes bounds the factor cache (matrix payload + stored factors).
	CacheBytes int64
	// QueueDepth bounds the admission queue across all workers; beyond it,
	// requests are shed with *OverloadError.
	QueueDepth int
	// MaxPanel caps the total right-hand-side columns coalesced into one
	// solve panel.
	MaxPanel int
	// DefaultDeadline applies to jobs that do not carry their own.
	DefaultDeadline time.Duration
	// MaxRetries is the per-job retry budget for transient backend faults
	// (injected crashes, receive-timeout exhaustion, deadlocks).
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; it doubles per
	// attempt and is jittered by RetryJitter.
	RetryBackoff time.Duration
	// RetryJitter is the +/- fraction applied to retry delays.
	RetryJitter float64
	// Seed makes retry jitter and per-worker fault-plan derivation
	// deterministic.
	Seed int64
	// BreakerThreshold is the consecutive factor-failure count that opens a
	// matrix's circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before admitting
	// a probe.
	BreakerCooldown time.Duration
	// RefineIters is passed to core.SolveBoosted on graceful degradation.
	RefineIters int
	// Resilience configures each worker world's receive-retry and watchdog
	// behavior.
	Resilience comm.Resilience
	// FaultPlan, when non-nil, is installed on every worker world (with the
	// seed decorrelated per worker). Test and chaos use only.
	FaultPlan *comm.FaultPlan
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.P <= 0 {
		c.P = 2
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxPanel <= 0 {
		c.MaxPanel = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Microsecond
	}
	if c.RetryJitter < 0 {
		c.RetryJitter = 0
	} else if c.RetryJitter == 0 {
		c.RetryJitter = 0.5
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.RefineIters <= 0 {
		c.RefineIters = 2
	}
	if c.Resilience == (comm.Resilience{}) {
		c.Resilience = comm.Resilience{
			RecvTimeout:   50 * time.Millisecond,
			MaxRetries:    8,
			Backoff:       1.5,
			Jitter:        0.25,
			Seed:          c.Seed,
			DeadlockAfter: 500 * time.Millisecond,
		}
	}
	return c
}

// Job is one solve request. Exactly one of Matrix (inline) or MatrixID
// (registered via Register) identifies the system; B is the right-hand
// side, one or more columns. A zero Deadline means Config.DefaultDeadline.
type Job struct {
	Tenant   string
	MatrixID string
	Matrix   *blocktri.Matrix
	B        *mat.Matrix
	Deadline time.Time
}

// Result reports a completed solve.
type Result struct {
	// X is the solution panel, same shape as the job's B.
	X *mat.Matrix
	// Warm reports that the factorization was already resident.
	Warm bool
	// Coalesced is the number of jobs solved in the same panel (>= 1).
	Coalesced int
	// Retries is how many times the batch was retried past transient
	// backend faults before succeeding.
	Retries int
	// Boosted reports the solve went through core.SolveBoosted graceful
	// degradation; Boost carries its report.
	Boosted bool
	Boost   core.BoostReport
	// Wall is the service time of the batch the job rode in.
	Wall time.Duration
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Submitted int64
	Solved    int64
	Failed    int64
	Shed      int64
	Expired   int64 // submitter gave up (deadline/cancel) before a result

	FactorHits     int64
	Factorizations int64
	InflightJoins  int64
	Evictions      int64
	CacheBytes     int64

	Retries         int64
	Boosted         int64
	CoalescedPanels int64
	CoalescedJobs   int64
	BreakerOpens    int64

	Queued int
}

type outcome struct {
	x         *mat.Matrix
	err       error
	warm      bool
	coalesced int
	retries   int
	boosted   bool
	boost     core.BoostReport
	wall      time.Duration
}

type task struct {
	job      Job
	tenant   string
	a        *blocktri.Matrix
	key      string
	deadline time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan outcome // buffered(1): workers never block delivering
	canceled atomic.Bool  // submitter gave up; workers skip it
	enqueued time.Time
}

type registration struct {
	a   *blocktri.Matrix
	key string
}

type breakerState struct {
	failures  int
	openUntil time.Time
}

// Server is the multi-tenant solver service. Create with New, shut down
// with Close.
type Server struct {
	cfg   Config
	cache *factorCache

	mu       sync.Mutex
	closed   bool
	queued   int
	ids      map[string]*registration
	breakers map[string]*breakerState

	workers     []*worker
	lastSolveNs atomic.Int64

	submitted, solved, failed, shed, expired atomic.Int64
	retries, boosted, breakerOpens           atomic.Int64
	coalescedPanels, coalescedJobs           atomic.Int64

	// testServeHook, when set (same-package tests only), observes each batch
	// as its worker starts serving it.
	testServeHook func([]*task)
}

// New starts a server with cfg's workers and worlds running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newFactorCache(cfg.CacheBytes),
		ids:      make(map[string]*registration),
		breakers: make(map[string]*breakerState),
	}
	for i := 0; i < cfg.Workers; i++ {
		world := comm.NewWorld(cfg.P)
		world.SetResilience(cfg.Resilience)
		if cfg.FaultPlan != nil {
			plan := *cfg.FaultPlan
			plan.Seed ^= int64(i+1) * 0x9e3779b9
			world.SetFaultPlan(&plan)
		}
		w := &worker{
			srv:    s,
			idx:    i,
			world:  world,
			queues: make(map[string][]*task),
			done:   make(chan struct{}),
			rng:    rand.New(rand.NewSource(cfg.Seed ^ int64(i+1)*0x7f4a7c15)),
		}
		w.cond = sync.NewCond(&w.mu)
		s.workers = append(s.workers, w)
		//lint:ignore goleak loop exits when Close sets w.closed under w.mu and broadcasts w.cond; it closes w.done itself so close() can join it.
		go w.loop()
	}
	return s
}

// Register binds id to a matrix so jobs can reference it by MatrixID
// without shipping the matrix each time. Re-registering an id replaces it.
func (s *Server) Register(id string, a *blocktri.Matrix) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key, err := MatrixKey(a)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.ids[id] = &registration{a: a, key: key}
	return nil
}

// Submit runs one job to completion and returns its result, or a typed
// error. It blocks until the job finishes, is shed, or ctx / the job
// deadline gives out; in the latter case the backend solve is canceled
// through the comm layer rather than left running.
func (s *Server) Submit(ctx context.Context, job Job) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.submitted.Add(1)
	t, err := s.admit(ctx, job)
	if err != nil {
		return nil, err
	}
	defer t.cancel()
	select {
	case out := <-t.done:
		return s.finish(t, out)
	case <-t.ctx.Done():
		t.canceled.Store(true)
		s.expired.Add(1)
		if errors.Is(t.ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w after %v", ErrDeadlineExceeded, time.Since(t.enqueued).Round(time.Millisecond))
		}
		return nil, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(t.ctx))
	}
}

// admit validates, resolves, breaker-checks, and enqueues the job; every
// error return has already released the task's context.
func (s *Server) admit(ctx context.Context, job Job) (*task, error) {
	if job.B == nil || job.B.Cols < 1 || job.B.Rows < 1 {
		return nil, fmt.Errorf("%w: missing or empty right-hand side", ErrBadRequest)
	}
	tenant := job.Tenant
	if tenant == "" {
		tenant = "default"
	}
	var a *blocktri.Matrix
	var key string
	switch {
	case job.Matrix != nil:
		a = job.Matrix
		k, err := MatrixKey(a)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		key = k
	case job.MatrixID != "":
		s.mu.Lock()
		reg := s.ids[job.MatrixID]
		s.mu.Unlock()
		if reg == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownMatrix, job.MatrixID)
		}
		a, key = reg.a, reg.key
	default:
		return nil, fmt.Errorf("%w: job carries neither matrix nor matrix id", ErrBadRequest)
	}
	if job.B.Rows != a.N*a.M {
		return nil, fmt.Errorf("%w: rhs has %d rows, matrix wants %d", ErrBadRequest, job.B.Rows, a.N*a.M)
	}
	if err := s.breakerCheck(key); err != nil {
		return nil, err
	}

	deadline := job.Deadline
	if deadline.IsZero() {
		deadline = time.Now().Add(s.cfg.DefaultDeadline)
	}
	tctx, cancel := context.WithDeadline(ctx, deadline)
	t := &task{
		job: job, tenant: tenant, a: a, key: key,
		//lint:ignore ctxflow the task IS the request: it carries its deadline ctx to the worker, and Submit defers t.cancel() on every outcome.
		deadline: deadline, ctx: tctx, cancel: cancel,
		done: make(chan outcome, 1), enqueued: time.Now(),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	if s.queued >= s.cfg.QueueDepth {
		q := s.queued
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		cancel()
		s.shed.Add(1)
		return nil, &OverloadError{Queued: q, RetryAfter: retry}
	}
	s.queued++
	s.mu.Unlock()

	if !s.workers[shard(key, len(s.workers))].enqueue(t) {
		s.noteDequeued()
		cancel()
		return nil, ErrClosed
	}
	return t, nil
}

func (s *Server) finish(t *task, out outcome) (*Result, error) {
	if out.err != nil {
		s.failed.Add(1)
		if errors.Is(out.err, comm.ErrCanceled) {
			if !time.Now().Before(t.deadline) {
				return nil, fmt.Errorf("%w: backend run aborted at deadline", ErrDeadlineExceeded)
			}
			return nil, fmt.Errorf("%w: %w", ErrCanceled, out.err)
		}
		return nil, out.err
	}
	s.solved.Add(1)
	if out.boosted {
		s.boosted.Add(1)
	}
	return &Result{
		X: out.x, Warm: out.warm, Coalesced: out.coalesced,
		Retries: out.retries, Boosted: out.boosted, Boost: out.boost,
		Wall: out.wall,
	}, nil
}

// Close shuts the service down: queued jobs fail with ErrClosed, workers
// drain, and every worker world's rank goroutines are stopped
// deterministically. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, w := range s.workers {
		w.close()
	}
	for _, w := range s.workers {
		w.world.Close()
	}
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	cs, bytes := s.cache.snapshot()
	s.mu.Lock()
	q := s.queued
	s.mu.Unlock()
	return Stats{
		Submitted: s.submitted.Load(),
		Solved:    s.solved.Load(),
		Failed:    s.failed.Load(),
		Shed:      s.shed.Load(),
		Expired:   s.expired.Load(),

		FactorHits:     cs.Hits,
		Factorizations: cs.Misses,
		InflightJoins:  cs.InflightJoins,
		Evictions:      cs.Evictions,
		CacheBytes:     bytes,

		Retries:         s.retries.Load(),
		Boosted:         s.boosted.Load(),
		CoalescedPanels: s.coalescedPanels.Load(),
		CoalescedJobs:   s.coalescedJobs.Load(),
		BreakerOpens:    s.breakerOpens.Load(),

		Queued: q,
	}
}

func (s *Server) noteDequeued() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
}

// retryAfterLocked estimates when queue capacity frees up: observed per-job
// service time times the queue depth ahead, split across workers.
func (s *Server) retryAfterLocked() time.Duration {
	per := time.Duration(s.lastSolveNs.Load())
	if per <= 0 {
		per = time.Millisecond
	}
	d := time.Duration(s.queued+1) * per / time.Duration(len(s.workers))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (s *Server) breakerCheck(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := s.breakers[key]
	if br == nil {
		return nil
	}
	if rem := time.Until(br.openUntil); rem > 0 {
		return &CircuitError{Key: key, Failures: br.failures, RetryAfter: rem}
	}
	// Cooldown over: admit probes; failure count is retained so the next
	// failure reopens the breaker immediately (half-open semantics).
	return nil
}

func (s *Server) breakerFail(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := s.breakers[key]
	if br == nil {
		br = &breakerState{}
		s.breakers[key] = br
	}
	br.failures++
	if br.failures >= s.cfg.BreakerThreshold {
		br.openUntil = time.Now().Add(s.cfg.BreakerCooldown)
		s.breakerOpens.Add(1)
	}
}

func (s *Server) breakerOK(key string) {
	s.mu.Lock()
	delete(s.breakers, key)
	s.mu.Unlock()
}

func shard(key string, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// worker owns one comm.World and serializes all factor/solve runs on it.
type worker struct {
	srv   *Server
	idx   int
	world *comm.World
	rng   *rand.Rand // worker-goroutine only: retry backoff jitter

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	queues map[string][]*task // per-tenant FIFO
	order  []string           // round-robin ring of tenants with queued work
	next   int                // ring cursor
	done   chan struct{}
}

func (w *worker) enqueue(t *task) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	if _, ok := w.queues[t.tenant]; !ok {
		w.order = append(w.order, t.tenant)
	}
	w.queues[t.tenant] = append(w.queues[t.tenant], t)
	w.cond.Signal()
	return true
}

func (w *worker) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}

func (w *worker) loop() {
	defer close(w.done)
	for {
		t := w.nextTask()
		if t == nil {
			w.failRemaining()
			return
		}
		batch := w.coalesce(t)
		w.serve(batch)
	}
}

// nextTask blocks for the next job, drained with per-tenant round-robin:
// the ring cursor advances one tenant per pop, so a tenant that floods the
// queue delays its own tail, not its neighbors. Returns nil when closed.
func (w *worker) nextTask() *task {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.closed {
			return nil
		}
		if t := w.popLocked(); t != nil {
			return t
		}
		w.cond.Wait()
	}
}

func (w *worker) popLocked() *task {
	for tries := len(w.order); tries > 0; tries-- {
		if w.next >= len(w.order) {
			w.next = 0
		}
		tenant := w.order[w.next]
		q := w.queues[tenant]
		if len(q) == 0 {
			w.dropTenantLocked(w.next)
			continue
		}
		t := q[0]
		w.queues[tenant] = q[1:]
		if len(q) == 1 {
			w.dropTenantLocked(w.next)
		} else {
			w.next++
		}
		w.srv.noteDequeued()
		return t
	}
	return nil
}

func (w *worker) dropTenantLocked(i int) {
	tenant := w.order[i]
	delete(w.queues, tenant)
	w.order = append(w.order[:i], w.order[i+1:]...)
	if w.next > i || w.next >= len(w.order) {
		w.next = 0
	}
}

// coalesce pulls queued jobs for the same matrix key into first's batch, up
// to MaxPanel total right-hand-side columns. It scans every tenant's queue
// (preserving each tenant's per-key order), so coalescing is itself fair:
// a panel formed for tenant A's matrix carries B's jobs for that matrix too.
func (w *worker) coalesce(first *task) []*task {
	batch := []*task{first}
	cols := first.job.B.Cols
	w.mu.Lock()
	tenants := append([]string(nil), w.order...)
	for _, tenant := range tenants {
		q := w.queues[tenant]
		kept := q[:0]
		for _, t := range q {
			if t.key == first.key && cols+t.job.B.Cols <= w.srv.cfg.MaxPanel {
				batch = append(batch, t)
				cols += t.job.B.Cols
				w.srv.noteDequeued()
				continue
			}
			kept = append(kept, t)
		}
		if len(kept) == 0 {
			delete(w.queues, tenant)
		} else {
			w.queues[tenant] = kept
		}
	}
	// Compact the ring: drop tenants whose queues emptied.
	keptOrder := w.order[:0]
	for _, tenant := range w.order {
		if _, ok := w.queues[tenant]; ok {
			keptOrder = append(keptOrder, tenant)
		}
	}
	w.order = keptOrder
	if w.next >= len(w.order) {
		w.next = 0
	}
	w.mu.Unlock()
	return batch
}

// failRemaining delivers ErrClosed to everything still queued at shutdown.
func (w *worker) failRemaining() {
	w.mu.Lock()
	var leftover []*task
	for _, q := range w.queues {
		leftover = append(leftover, q...)
	}
	w.queues = make(map[string][]*task)
	w.order = nil
	w.mu.Unlock()
	for _, t := range leftover {
		w.srv.noteDequeued()
		t.done <- outcome{err: ErrClosed}
	}
}

// serve runs one coalesced batch to completion: acquire (or build) the
// factorization, solve the panel with retries, degrade through SolveBoosted
// on singular pivots, and deliver every job's outcome.
func (w *worker) serve(batch []*task) {
	if hook := w.srv.testServeHook; hook != nil {
		hook(batch)
	}
	live := batch[:0:0]
	for _, t := range batch {
		if !t.canceled.Load() && t.ctx.Err() == nil {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}
	if len(live) > 1 {
		w.srv.coalescedPanels.Add(1)
		w.srv.coalescedJobs.Add(int64(len(live) - 1))
	}
	key := live[0].key
	start := time.Now()

	var (
		xs       []*mat.Matrix
		boosted  bool
		boostRep core.BoostReport
		retries  int
	)
	entry, warm, err := w.srv.cache.acquire(key, func() (*core.ARD, *blocktri.Matrix, int64, error) {
		return w.buildFactor(live)
	})
	switch {
	case err == nil:
		xs, retries, err = w.solvePanel(live, entry.ard)
		w.srv.cache.release(entry)
	case core.Boostable(err):
		// Singular-pivot factor failure: degrade through the boost ladder.
		// Nothing is cached; the breaker is only charged if boosting fails.
		xs, boostRep, retries, err = w.serveBoosted(live)
		if err == nil {
			boosted = true
		} else if !errors.Is(err, comm.ErrCanceled) {
			w.srv.breakerFail(key)
		}
	default:
		// Terminal factor failure. Charge the breaker unless the run was
		// merely canceled by a deadline — overload is not matrix badness.
		if !errors.Is(err, comm.ErrCanceled) {
			w.srv.breakerFail(key)
		}
	}
	wall := time.Since(start)

	if err != nil {
		for _, t := range live {
			t.done <- outcome{err: err, retries: retries, wall: wall}
		}
		return
	}
	w.srv.breakerOK(key)
	w.srv.lastSolveNs.Store(int64(wall) / int64(len(live)))
	for i, t := range live {
		t.done <- outcome{
			x: xs[i], warm: warm, coalesced: len(live), retries: retries,
			boosted: boosted, boost: boostRep, wall: wall,
		}
	}
}

// buildFactor factors the batch's matrix under the batch deadline, retrying
// transient backend faults. A fresh ARD is constructed per attempt so a
// half-factored state is never reused.
func (w *worker) buildFactor(live []*task) (*core.ARD, *blocktri.Matrix, int64, error) {
	a := live[0].a
	var ard *core.ARD
	_, err := w.runWithRetry(live, func() error {
		ard = core.NewARD(a, core.Config{World: w.world})
		return ard.Factor()
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return ard, a, ard.FactorStats().StoredBytes + matrixBytes(a), nil
}

// solvePanel concatenates the batch's right-hand sides into one panel,
// solves it in a single BLAS-3 pass, and splits the solution per job.
func (w *worker) solvePanel(live []*task, ard *core.ARD) ([]*mat.Matrix, int, error) {
	rows := live[0].a.N * live[0].a.M
	b, total := concatRHS(live, rows)
	x := mat.New(rows, total)
	retries, err := w.runWithRetry(live, func() error {
		return ard.SolveTo(x, b)
	})
	if err != nil {
		return nil, retries, err
	}
	return splitX(live, x, rows), retries, nil
}

// serveBoosted is the graceful-degradation path: the plain ARD factor hit a
// boostable failure (singular pivot), so the batch is solved through
// core.SolveBoosted's escalation ladder instead.
func (w *worker) serveBoosted(live []*task) ([]*mat.Matrix, core.BoostReport, int, error) {
	a := live[0].a
	rows := a.N * a.M
	b, _ := concatRHS(live, rows)
	var (
		x   *mat.Matrix
		rep core.BoostReport
	)
	retries, err := w.runWithRetry(live, func() error {
		var berr error
		x, rep, berr = core.SolveBoosted(a, func(m *blocktri.Matrix) core.Solver {
			return core.NewARD(m, core.Config{World: w.world})
		}, b, w.srv.cfg.RefineIters)
		return berr
	})
	if err != nil {
		return nil, rep, retries, err
	}
	return splitX(live, x, rows), rep, retries, nil
}

// runWithRetry installs the batch deadline as the world's run context and
// runs f, retrying transient backend faults with jittered exponential
// backoff up to the configured budget.
func (w *worker) runWithRetry(live []*task, f func() error) (int, error) {
	ctx, cancel := context.WithDeadline(context.Background(), maxDeadline(live))
	defer cancel()
	w.world.SetRunContext(ctx)
	defer w.world.SetRunContext(nil)
	var err error
	for attempt := 0; ; attempt++ {
		err = f()
		if err == nil || !transient(err) || attempt >= w.srv.cfg.MaxRetries {
			return attempt, err
		}
		w.srv.retries.Add(1)
		w.backoffSleep(attempt + 1)
	}
}

// transient reports whether err is a backend fault worth retrying: an
// injected crash, an exhausted receive-retry budget, or a declared
// deadlock. Cancellation (deadline) and domain errors (singularity, shape)
// are terminal.
func transient(err error) bool {
	if errors.Is(err, comm.ErrCanceled) {
		return false
	}
	var de *comm.DeadlockError
	if errors.As(err, &de) {
		return true
	}
	return errors.Is(err, comm.ErrInjectedCrash) ||
		errors.Is(err, comm.ErrRecvTimeout) ||
		errors.Is(err, comm.ErrMalformedPayload)
}

// backoffSleep sleeps the attempt's backoff: base doubling per attempt,
// capped, jittered by the configured fraction so retry storms decorrelate.
func (w *worker) backoffSleep(attempt int) {
	d := w.srv.cfg.RetryBackoff << (attempt - 1)
	if mx := 50 * time.Millisecond; d > mx {
		d = mx
	}
	if j := w.srv.cfg.RetryJitter; j > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*w.rng.Float64()-1)))
	}
	time.Sleep(d)
}

func maxDeadline(live []*task) time.Time {
	d := live[0].deadline
	for _, t := range live[1:] {
		if t.deadline.After(d) {
			d = t.deadline
		}
	}
	return d
}

func concatRHS(live []*task, rows int) (*mat.Matrix, int) {
	total := 0
	for _, t := range live {
		total += t.job.B.Cols
	}
	if len(live) == 1 {
		return live[0].job.B, total
	}
	b := mat.New(rows, total)
	off := 0
	for _, t := range live {
		b.View(0, off, rows, t.job.B.Cols).CopyFrom(t.job.B)
		off += t.job.B.Cols
	}
	return b, total
}

func splitX(live []*task, x *mat.Matrix, rows int) []*mat.Matrix {
	if len(live) == 1 {
		return []*mat.Matrix{x}
	}
	xs := make([]*mat.Matrix, len(live))
	off := 0
	for i, t := range live {
		c := t.job.B.Cols
		xi := mat.New(rows, c)
		xi.CopyFrom(x.View(0, off, rows, c))
		xs[i] = xi
		off += c
	}
	return xs
}
