// Package comm implements an in-process message-passing runtime that stands
// in for MPI in the paper's experiments: a World of P ranks, each executed
// on its own goroutine, exchanging typed messages through matched
// send/receive pairs, plus the collective operations the solvers need
// (barrier, broadcast, allreduce, gather).
//
// Every rank accumulates communication statistics (message and byte counts)
// and a simulated communication time under a configurable alpha-beta
// (latency-bandwidth) cost model, so experiments can report both measured
// wall-clock times (real goroutine parallelism up to GOMAXPROCS) and
// modeled network costs for processor counts beyond the host's cores.
//
// The runtime is allocation-free in steady state: ranks run on persistent
// worker goroutines, message payloads are copied into buffers recycled
// through a per-world free list (receivers return them with Release), and
// mailbox queues keep their capacity across messages. Repeated Run calls on
// a warmed-up world therefore put no pressure on the garbage collector.
//
// Failures are typed, not fatal: a rank body aborts with Throw (or by
// panicking), World.Run returns a *RankError identifying the rank and
// cause, and a watchdog converts no-progress states into a *DeadlockError
// naming each blocked rank's (src, tag). See docs/RESILIENCE.md. A seeded
// FaultPlan can inject message drops, duplicates, corruption, delays, and
// rank crashes or stalls for chaos testing; with no plan installed the
// fault hooks reduce to a nil check on the hot path.
package comm

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// CostModel is the classic alpha-beta model: sending an n-byte message
// costs Alpha + Beta*n seconds of simulated network time on both endpoints.
type CostModel struct {
	Alpha float64 // per-message latency, seconds
	Beta  float64 // per-byte transfer time, seconds
}

// DefaultCostModel approximates a commodity cluster interconnect:
// 1 microsecond latency, 10 GB/s bandwidth.
var DefaultCostModel = CostModel{Alpha: 1e-6, Beta: 1e-10}

// MessageCost returns the modeled time to transfer n bytes.
func (c CostModel) MessageCost(n int) float64 {
	return c.Alpha + c.Beta*float64(n)
}

// Stats accumulates per-rank communication counters.
type Stats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
	// SimCommTime is the accumulated alpha-beta time in seconds this rank
	// spent sending and receiving under the World's cost model.
	SimCommTime float64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.MsgsSent += other.MsgsSent
	s.BytesSent += other.BytesSent
	s.MsgsRecv += other.MsgsRecv
	s.BytesRecv += other.BytesRecv
	s.SimCommTime += other.SimCommTime
}

type msgKey struct {
	src, tag int
}

type message struct {
	data  []float64
	bytes int
	// seq and sum are populated only while a FaultPlan is installed: seq is
	// the 1-based per-(src, dst, tag) sequence number (0 = unsequenced) and
	// sum is a checksum of the pristine payload, so receivers can discard
	// duplicates, detect holes left by drops, and detect in-flight
	// corruption.
	seq uint64
	sum uint64
}

// msgQueue is one (source, tag) FIFO. Delivered messages advance head
// instead of re-slicing, so the items array keeps its capacity and a
// drained queue is reset in place — steady-state puts allocate nothing.
// Each queue has its own condition variable (sharing the mailbox mutex) so
// a put wakes only a receiver waiting on that (source, tag) pair, never
// receivers parked on unrelated queues.
type msgQueue struct {
	items  []message
	head   int
	expect uint64 // next sequence due for delivery (fault mode only)
	cond   *sync.Cond
}

// advance consumes the head message, recycling storage in place.
func (q *msgQueue) advance() {
	q.items[q.head] = message{} // drop the payload reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
}

// recvStatus reports how a mailbox wait ended.
type recvStatus int

const (
	recvOK      recvStatus = iota
	recvTimeout            // deadline passed with no deliverable message
	recvHole               // head sequence is ahead of expect: a message was lost
	recvCorrupt            // head message failed its checksum and was discarded
)

// mailbox is the per-rank incoming message store with FIFO ordering per
// (source, tag) pair.
type mailbox struct {
	w       *World
	rank    int
	mu      sync.Mutex
	queues  map[msgKey]*msgQueue
	aborted bool
}

func newMailbox(w *World, rank int) *mailbox {
	return &mailbox{w: w, rank: rank, queues: make(map[msgKey]*msgQueue)}
}

// queue returns the FIFO for key, creating it on first use. Callers must
// hold mb.mu.
func (mb *mailbox) queue(key msgKey) *msgQueue {
	q := mb.queues[key]
	if q == nil {
		q = &msgQueue{expect: 1}
		q.cond = sync.NewCond(&mb.mu)
		mb.queues[key] = q
	}
	return q
}

func (mb *mailbox) put(key msgKey, m message) {
	mb.mu.Lock()
	q := mb.queue(key)
	q.items = append(q.items, m)
	// Scoped wakeup: only the receiver waiting on this (source, tag) queue
	// is woken, and there is at most one (the rank goroutine), so Signal
	// suffices. See BenchmarkMailboxWakeups.
	q.cond.Signal()
	mb.mu.Unlock()
	mb.w.noteProgress()
}

// pushFront re-queues a retransmitted message ahead of everything already
// buffered, so it is delivered at its original sequence position. Fault
// paths only; may allocate.
func (mb *mailbox) pushFront(key msgKey, m message) {
	mb.mu.Lock()
	q := mb.queue(key)
	if q.head > 0 {
		q.head--
		q.items[q.head] = m
	} else {
		q.items = append(q.items, message{})
		copy(q.items[1:], q.items)
		q.items[0] = m
	}
	q.cond.Signal()
	mb.mu.Unlock()
	mb.w.noteProgress()
}

// wait blocks until a message for key is deliverable, the deadline passes
// (zero deadline = wait forever), or the world aborts. With seqCheck set it
// enforces sequence order: stale duplicates are discarded silently, a
// too-new head reports recvHole, and a checksum mismatch discards the
// message and reports recvCorrupt so the caller can request retransmission.
func (mb *mailbox) wait(key msgKey, deadline time.Time, seqCheck bool) (message, recvStatus) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	q := mb.queue(key)
	registered := false
	for {
		for q.head < len(q.items) {
			m := q.items[q.head]
			if seqCheck && m.seq != 0 {
				if m.seq < q.expect { // duplicate of a delivered message
					q.advance()
					mb.w.pool.put(m.data)
					continue
				}
				if m.seq > q.expect { // an earlier message never arrived
					if registered {
						mb.w.setBlocked(mb.rank, opRunning, -1, -1)
					}
					return message{}, recvHole
				}
				if payloadSum(m.data) != m.sum { // corrupted in flight
					q.advance()
					mb.w.pool.put(m.data)
					if registered {
						mb.w.setBlocked(mb.rank, opRunning, -1, -1)
					}
					return message{}, recvCorrupt
				}
				q.expect++
			}
			q.advance()
			if registered {
				mb.w.setBlocked(mb.rank, opRunning, -1, -1)
			}
			mb.w.noteProgress()
			return m, recvOK
		}
		if mb.aborted {
			//lint:ignore panicpolicy cascadeAbort is the sanctioned control-flow signal for abort victims; job.run swallows it.
			panic(cascadeAbort{})
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			if registered {
				mb.w.setBlocked(mb.rank, opRunning, -1, -1)
			}
			return message{}, recvTimeout
		}
		if !registered {
			// Register the blocked (src, tag) for the watchdog only when
			// actually parking; the deliver-immediately fast path above
			// never touches the shared state.
			mb.w.setBlocked(mb.rank, opRecv, key.src, key.tag)
			registered = true
		}
		q.cond.Wait()
	}
}

// abort wakes every blocked receiver so a failure on one rank cascades
// instead of deadlocking the world.
func (mb *mailbox) abort() {
	mb.mu.Lock()
	mb.aborted = true
	for _, q := range mb.queues {
		q.cond.Broadcast()
	}
	mb.mu.Unlock()
}

func (mb *mailbox) clearAbort() {
	mb.mu.Lock()
	mb.aborted = false
	mb.mu.Unlock()
}

func (mb *mailbox) isAborted() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.aborted
}

// kick wakes every waiter on this mailbox so timed waits can re-check
// their deadlines. Called by the watchdog tick in resilient mode.
func (mb *mailbox) kick() {
	mb.mu.Lock()
	for _, q := range mb.queues {
		q.cond.Broadcast()
	}
	mb.mu.Unlock()
}

// expectOf returns the next sequence number due on key's queue.
func (mb *mailbox) expectOf(key msgKey) uint64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.queue(key).expect
}

// clear drops every undelivered message, recycling payload storage. Called
// at the start of each Run: an aborted run legitimately strands in-flight
// messages, and because tags are deterministic per protocol, a stale
// message would otherwise be consumed by the next run as if fresh — a
// silent wrong answer. A clean run leaves nothing pending, so in the
// steady state this walks empty queues and frees nothing.
func (mb *mailbox) clear() {
	mb.mu.Lock()
	for _, q := range mb.queues {
		for q.head < len(q.items) {
			mb.w.pool.put(q.items[q.head].data)
			q.advance()
		}
	}
	mb.mu.Unlock()
}

// resetSeq rewinds every queue's expected sequence for a new Run.
func (mb *mailbox) resetSeq() {
	mb.mu.Lock()
	for _, q := range mb.queues {
		q.expect = 1
	}
	mb.mu.Unlock()
}

// pending returns the number of undelivered messages (for leak checks).
func (mb *mailbox) pending() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := 0
	for _, q := range mb.queues {
		n += len(q.items) - q.head
	}
	return n
}

// bufPool recycles payload buffers in power-of-two size classes. It is a
// typed free list guarded by a mutex (not a sync.Pool) so checkouts box no
// interfaces and steady state allocates nothing.
type bufPool struct {
	mu      sync.Mutex
	classes [48][][]float64
}

func (p *bufPool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	p.mu.Lock()
	list := p.classes[c]
	if k := len(list); k > 0 {
		buf := list[k-1]
		list[k-1] = nil
		p.classes[c] = list[:k-1]
		p.mu.Unlock()
		return buf[:n]
	}
	p.mu.Unlock()
	return make([]float64, n, 1<<c)
}

func (p *bufPool) put(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	c := bits.Len(uint(cap(buf))) - 1 // floor(log2 cap)
	p.mu.Lock()
	p.classes[c] = append(p.classes[c], buf[:cap(buf)])
	p.mu.Unlock()
}

// Per-rank execution states tracked for the watchdog, packed with the
// blocked (src, tag) into one atomic word: op in the top bits, src in bits
// 32..47, tag in the low 32.
const (
	opRunning = iota // executing the body (or not blocked anywhere)
	opRecv           // parked in a mailbox wait
	opStall          // parked in an injected stall
	opDone           // body returned (or unwound)
)

func packState(op, src, tag int) uint64 {
	return uint64(op)<<62 | uint64(uint16(src))<<32 | uint64(uint32(tag))
}

func unpackState(s uint64) (op, src, tag int) {
	return int(s >> 62), int(int16(uint16(s >> 32))), int(int32(uint32(s)))
}

// World is a set of P communicating ranks. The first Run starts one
// persistent worker goroutine per rank plus a watchdog; they idle between
// Runs and exit when the World is garbage collected.
type World struct {
	P     int
	Model CostModel

	boxes []*mailbox
	stats []Stats
	mu    sync.Mutex

	pool bufPool

	workersOnce sync.Once
	jobs        []chan job
	comms       []*Comm
	runErrs     []*RankError
	wg          sync.WaitGroup
	shutdown    func() // idempotent worker teardown, shared with the finalizer

	res    Resilience
	faults *faultState // nil unless a FaultPlan is installed

	// runCtx, when non-nil, bounds every Run call (see SetRunContext). It
	// lets callers that cannot reach the Run sites inside a solver — the
	// serve layer propagating per-job deadlines into ARD.Factor/SolveTo —
	// install cancellation out of band.
	runCtx context.Context

	// Watchdog state: blocked packs each rank's execution state, progress
	// counts every delivery/park/unpark event, active brackets a Run, and
	// watchErr carries a detected deadlock back to Run.
	blocked  []atomic.Uint64
	progress atomic.Uint64
	active   atomic.Bool
	watchErr atomic.Pointer[DeadlockError]
	wake     chan *World
}

// NewWorld returns a world of p ranks using the default cost model.
func NewWorld(p int) *World {
	if p <= 0 {
		//lint:ignore panicpolicy constructor misuse outside any Run body; there is no rank to fail.
		panic(fmt.Sprintf("comm: invalid world size %d", p))
	}
	w := &World{P: p, Model: DefaultCostModel,
		boxes: make([]*mailbox, p), stats: make([]Stats, p)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox(w, i)
	}
	return w
}

// Comm is one rank's endpoint in a World. A Comm must only be used from
// the goroutine running that rank.
type Comm struct {
	world   *World
	rank    int
	stats   Stats
	scratch []float64 // persistent encode buffer for the *Into collectives

	// Fault-mode state (untouched when no plan is installed): opCount
	// numbers this rank's send/recv operations for crash/stall targeting,
	// sendSeq issues per-(dst, tag) sequence numbers.
	opCount int
	sendSeq map[sendKey]uint64

	// jitterState is the per-rank splitmix64 stream behind Resilience.Jitter,
	// lazily seeded from (Resilience.Seed, rank) on the first jittered retry.
	jitterState uint64
}

// splitmix64 advances s and returns the next output of the splitmix64
// generator — a tiny, allocation-free PRNG good enough for decorrelating
// retry schedules.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// retryJitter returns the multiplicative factor for one backed-off retry
// window: uniform in [1-J, 1+J] for J = Resilience.Jitter, drawn from this
// rank's deterministic stream. The stream is seeded once per Comm, so a
// rank's k-th jittered retry is the same number on every replay with the
// same Resilience.Seed.
func (c *Comm) retryJitter() float64 {
	j := c.world.res.Jitter
	if j <= 0 {
		return 1
	}
	if j > 1 {
		j = 1
	}
	if c.jitterState == 0 {
		mix := (uint64(c.rank) + 1) * 0x9e3779b97f4a7c15
		c.jitterState = uint64(c.world.res.Seed) ^ mix | 1
	}
	u := float64(splitmix64(&c.jitterState)>>11) * 0x1p-53 // uniform [0, 1)
	f := 1 + j*(2*u-1)
	if f < 0x1p-4 { // keep the window strictly positive
		f = 0x1p-4
	}
	return f
}

// Rank returns this endpoint's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.P }

// Stats returns a copy of this rank's accumulated counters.
func (c *Comm) Stats() Stats { return c.stats }

// ResetStats zeroes this rank's counters.
func (c *Comm) ResetStats() { c.stats = Stats{} }

// noteProgress records that the world did something observable (a message
// queued or delivered, a rank parked or unparked). The watchdog declares
// deadlock only when this counter stops moving.
func (w *World) noteProgress() { w.progress.Add(1) }

// setBlocked publishes rank's execution state for the watchdog.
func (w *World) setBlocked(rank, op, src, tag int) {
	w.blocked[rank].Store(packState(op, src, tag))
	w.progress.Add(1)
}

// job is one rank's share of a Run, delivered to its persistent worker.
type job struct {
	w    *World
	rank int
	body func(c *Comm)
}

// run executes the job body with the rank's persistent Comm: fresh stats,
// conversion of Throw/panic into a *RankError with the failing stack,
// world-wide abort so blocked ranks unwind, and a stats merge that is
// skipped when the body failed.
func (j job) run() {
	w, rank := j.w, j.rank
	defer w.wg.Done()
	defer func() {
		w.setBlocked(rank, opDone, -1, -1)
		if p := recover(); p != nil {
			switch a := p.(type) {
			case cascadeAbort:
				// Woken by a world abort: a victim of another rank's
				// failure (or the watchdog), not a cause — record nothing.
			case rankAbort:
				w.runErrs[rank] = &RankError{Rank: rank, Err: a.err, Stack: debug.Stack()}
			default:
				w.runErrs[rank] = &RankError{Rank: rank,
					Err: fmt.Errorf("panic: %v", p), Stack: debug.Stack()}
			}
			// Wake every rank blocked on a receive so the whole world
			// unwinds instead of deadlocking.
			for _, mb := range w.boxes {
				mb.abort()
			}
		}
	}()
	c := w.comms[rank]
	c.stats = Stats{}
	j.body(c)
	w.mu.Lock()
	w.stats[rank].Add(c.stats)
	w.mu.Unlock()
}

// rankWorker is the persistent per-rank loop. It deliberately holds no
// *World reference while idle (only its two channels), so an unreachable
// World's finalizer can close stop and reap the workers.
func rankWorker(jobs chan job, stop chan struct{}) {
	for {
		select {
		case j := <-jobs:
			j.run()
		case <-stop:
			return
		}
	}
}

// ensureWorkers starts the persistent rank workers and watchdog on first
// use.
func (w *World) ensureWorkers() {
	w.workersOnce.Do(func() {
		w.jobs = make([]chan job, w.P)
		w.comms = make([]*Comm, w.P)
		w.runErrs = make([]*RankError, w.P)
		w.blocked = make([]atomic.Uint64, w.P)
		w.wake = make(chan *World, 1)
		stop := make(chan struct{})
		var stopOnce sync.Once
		shutdown := func() { stopOnce.Do(func() { close(stop) }) }
		w.shutdown = shutdown
		for r := 0; r < w.P; r++ {
			w.jobs[r] = make(chan job, 1)
			w.comms[r] = &Comm{world: w, rank: r}
			go rankWorker(w.jobs[r], stop)
		}
		go watchdogLoop(w.wake, stop)
		// The closures must not capture w, or the World could never become
		// unreachable and the workers would leak.
		runtime.SetFinalizer(w, func(*World) { shutdown() })
	})
}

// Close deterministically stops the persistent rank workers and the
// watchdog. A World that is never closed is still reaped by a finalizer
// once it becomes unreachable; Close exists for callers that need
// goroutine-leak-free teardown at a known point (the serve layer's chaos
// harness counts goroutines before and after a campaign). Close is
// idempotent. It must not be called while a Run is active, and the World
// must not be used after Close.
func (w *World) Close() {
	w.ensureWorkers()
	runtime.SetFinalizer(w, nil)
	w.shutdown()
}

// Run executes body on p ranks concurrently and blocks until every rank
// returns, then reports how the run ended: nil when every rank completed,
// a *RankError (rank, cause, stack) when a body called Throw or panicked,
// or a *DeadlockError when the watchdog had to break a no-progress state.
// Cascade victims — ranks forcibly unwound because another rank failed —
// are not reported; the returned error is the originating failure on the
// lowest-numbered rank. Per-rank stats are retained on the World and can
// be collected with TotalStats.
//
// Run dispatches to persistent per-rank workers, so a warmed-up world
// executes it without heap allocation. Runs on one World must be
// sequential: concurrent Run calls would interleave their messages in the
// shared mailboxes. When a context was installed with SetRunContext, Run is
// bounded by it exactly as RunContext would be.
func (w *World) Run(body func(c *Comm)) error {
	return w.RunContext(w.runCtx, body)
}

// SetRunContext installs ctx as the context consulted by subsequent Run
// calls (nil clears it). It exists for callers that cannot reach the Run
// sites buried inside a solver: the serve layer sets a per-job deadline
// context before ARD.Factor/SolveTo and clears it after, so cancellation
// propagates into every nested Run without changing solver signatures. It
// must be called while no Run is active.
//
//lint:ignore ctxflow storing the ctx is this API's documented purpose: it scopes the next Run and is cleared by the caller afterwards.
func (w *World) SetRunContext(ctx context.Context) { w.runCtx = ctx }

// RunContext is Run bounded by ctx: if ctx is canceled or its deadline
// passes mid-run, every blocked rank is aborted (the same cascade a rank
// failure triggers) and the call returns an error wrapping ErrCanceled and
// ctx.Err(). Cancellation is cooperative at communication points — a rank
// grinding through local computation unwinds at its next send or receive.
// A genuine rank failure racing the cancellation is reported in preference
// to the cancellation itself. A nil ctx is plain Run.
func (w *World) RunContext(ctx context.Context, body func(c *Comm)) error {
	w.ensureWorkers()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("comm: run not started: %w: %w", ErrCanceled, err)
		}
	}
	// Reset any abort state left by a previous failed Run so the world
	// stays usable, and drop messages a failed run left in flight — their
	// tags would collide with this run's protocol.
	for _, mb := range w.boxes {
		mb.clearAbort()
		mb.clear()
	}
	for i := range w.runErrs {
		w.runErrs[i] = nil
	}
	w.watchErr.Store(nil)
	for r := range w.blocked {
		w.blocked[r].Store(packState(opRunning, -1, -1))
	}
	if w.faults != nil {
		w.faults.beginRun(w)
	}
	w.noteProgress()
	w.active.Store(true)
	select {
	case w.wake <- w:
	default:
	}
	// The cancel monitor lives exactly as long as this Run: it aborts the
	// mailboxes when ctx fires and is joined before returning, so a late
	// abort can never poison a subsequent Run. It is built in a separate
	// method so the nil-ctx fast path stays allocation-free (the monitor
	// closure would otherwise force its state to escape on every Run).
	var mon *runMonitor
	if ctx != nil && ctx.Done() != nil {
		mon = w.startCancelMonitor(ctx)
	}
	w.wg.Add(w.P)
	for r := 0; r < w.P; r++ {
		w.jobs[r] <- job{w: w, rank: r, body: body}
	}
	w.wg.Wait()
	w.active.Store(false)
	canceled := false
	if mon != nil {
		canceled = mon.halt()
	}
	if de := w.watchErr.Load(); de != nil {
		return de
	}
	for _, re := range w.runErrs {
		if re != nil {
			return re
		}
	}
	if canceled {
		return fmt.Errorf("comm: run aborted: %w: %w", ErrCanceled, ctx.Err())
	}
	return nil
}

// runMonitor watches one Run's context on a side goroutine. halt joins the
// goroutine and reports whether the context fired.
type runMonitor struct {
	canceled atomic.Bool
	stop     chan struct{}
	done     chan struct{}
}

func (w *World) startCancelMonitor(ctx context.Context) *runMonitor {
	m := &runMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		select {
		case <-ctx.Done():
			m.canceled.Store(true)
			for _, mb := range w.boxes {
				mb.abort()
			}
		case <-m.stop:
		}
	}()
	return m
}

func (m *runMonitor) halt() bool {
	close(m.stop)
	<-m.done
	return m.canceled.Load()
}

// TotalStats returns the sum of all ranks' counters accumulated by Run
// calls since the last ResetTotals.
func (w *World) TotalStats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total Stats
	for _, s := range w.stats {
		total.Add(s)
	}
	return total
}

// MaxSimCommTime returns the largest per-rank simulated communication time,
// the quantity that bounds a bulk-synchronous algorithm's modeled runtime.
func (w *World) MaxSimCommTime() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	max := 0.0
	for _, s := range w.stats {
		if s.SimCommTime > max {
			max = s.SimCommTime
		}
	}
	return max
}

// ResetTotals zeroes the per-rank counters retained on the World.
func (w *World) ResetTotals() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.stats {
		w.stats[i] = Stats{}
	}
}

// Pending returns the number of sent-but-unreceived messages across all
// ranks; a nonzero value after Run indicates a protocol bug.
func (w *World) Pending() int {
	n := 0
	for _, mb := range w.boxes {
		n += mb.pending()
	}
	return n
}

// Send delivers a copy of data to rank dst under the given tag. It never
// blocks (buffering is unbounded); ordering is FIFO per (source, tag).
// Sending to self is allowed. The copy lives in a pooled buffer that the
// receiver may hand back with Release once done with it.
func (c *Comm) Send(dst, tag int, data []float64) {
	w := c.world
	if dst < 0 || dst >= w.P {
		c.throwf(ErrInvalidRank, "comm: send to rank %d (P=%d)", dst, w.P)
	}
	nbytes := 8 * len(data)
	c.stats.MsgsSent++
	c.stats.BytesSent += int64(nbytes)
	c.stats.SimCommTime += w.Model.MessageCost(nbytes)
	if fs := w.faults; fs != nil {
		c.faultPoint()
		fs.send(c, dst, tag, data, nbytes)
		return
	}
	cp := w.pool.get(len(data))
	copy(cp, data)
	w.boxes[dst].put(msgKey{src: c.rank, tag: tag}, message{data: cp, bytes: nbytes})
}

// PayloadBuf checks a length-n buffer out of the world's message pool for
// building a payload in place. Hand the filled buffer to SendOwned; the
// pair moves one panel-sized message per scan round with a single copy
// (source matrix into the buffer) instead of Send's encode-then-copy two.
func (c *Comm) PayloadBuf(n int) []float64 {
	return c.world.pool.get(n)
}

// SendOwned is Send for a payload the caller built in a PayloadBuf buffer:
// ownership of data transfers to the comm layer, which delivers the buffer
// itself rather than a copy. After SendOwned returns the caller must not
// read or write data. Semantics otherwise match Send (never blocks, FIFO
// per (source, tag), receiver may Release).
func (c *Comm) SendOwned(dst, tag int, data []float64) {
	w := c.world
	if dst < 0 || dst >= w.P {
		c.throwf(ErrInvalidRank, "comm: send to rank %d (P=%d)", dst, w.P)
	}
	nbytes := 8 * len(data)
	c.stats.MsgsSent++
	c.stats.BytesSent += int64(nbytes)
	c.stats.SimCommTime += w.Model.MessageCost(nbytes)
	if fs := w.faults; fs != nil {
		c.faultPoint()
		// The injector copies payloads into its own buffers, so the
		// transferred buffer goes straight back to the pool here.
		fs.send(c, dst, tag, data, nbytes)
		w.pool.put(data)
		return
	}
	w.boxes[dst].put(msgKey{src: c.rank, tag: tag}, message{data: data, bytes: nbytes})
}

// Recv blocks until a message from rank src with the given tag arrives and
// returns its payload. The payload is owned by the caller; callers on a hot
// path should pass it to Release after consuming it so the buffer recycles
// instead of reaching the garbage collector.
//
// With a Resilience receive timeout configured, a receive that sees nothing
// for the timeout window retries up to MaxRetries times (backing off by
// Backoff each round, and requesting retransmission of injected losses
// first) before aborting the rank with ErrRecvTimeout.
func (c *Comm) Recv(src, tag int) []float64 {
	w := c.world
	if src < 0 || src >= w.P {
		c.throwf(ErrInvalidRank, "comm: recv from rank %d (P=%d)", src, w.P)
	}
	c.faultPoint()
	key := msgKey{src: src, tag: tag}
	mb := w.boxes[c.rank]
	seqCheck := w.faults != nil
	timeout := w.res.RecvTimeout
	retries := 0
	for {
		var deadline time.Time
		if timeout > 0 {
			deadline = time.Now().Add(timeout)
		}
		m, st := mb.wait(key, deadline, seqCheck)
		if st == recvOK {
			c.stats.MsgsRecv++
			c.stats.BytesRecv += int64(m.bytes)
			c.stats.SimCommTime += w.Model.MessageCost(m.bytes)
			return m.data
		}
		// Recovery path: ask the injector for a retransmit of the lost or
		// corrupted message before burning a retry on another wait.
		if w.faults != nil && w.faults.retransmit(mb, key) {
			continue
		}
		retries++
		if retries > w.res.MaxRetries {
			c.throwf(ErrRecvTimeout,
				"comm: recv(src=%d, tag=%d) gave up after %d retries", src, tag, retries-1)
		}
		if st != recvTimeout {
			// A hole or corruption with nothing to retransmit: the message
			// is still in flight behind an injected delay. Yield briefly.
			time.Sleep(50 * time.Microsecond)
		}
		if timeout > 0 && w.res.Backoff > 1 {
			timeout = time.Duration(float64(timeout) * w.res.Backoff)
		}
		if timeout > 0 {
			// Jitter the next window so ranks that timed out together do
			// not retry in lockstep (see Resilience.Jitter).
			timeout = time.Duration(float64(timeout) * c.retryJitter())
		}
	}
}

// Release returns a payload previously obtained from Recv to the world's
// buffer pool. Releasing is optional — unreleased buffers are simply
// garbage collected — but mandatory discipline applies when it is used:
// only Recv-returned slices may be released, at most once, and never while
// anything still references them (in particular, never release the root's
// own slice from Gather results, which is the caller's data, and
// never release a buffer that a decode returned a view of).
func (c *Comm) Release(buf []float64) {
	c.world.pool.put(buf)
}

// SendRecv sends sendData to dst and receives from src under the same tag,
// without deadlock regardless of ordering (sends never block).
func (c *Comm) SendRecv(dst int, sendData []float64, src, tag int) []float64 {
	c.Send(dst, tag, sendData)
	return c.Recv(src, tag)
}

// Exchange performs the pairwise exchange at the heart of recursive
// doubling: both ranks send their payload to each other under tag and
// return the partner's payload.
func (c *Comm) Exchange(partner, tag int, data []float64) []float64 {
	return c.SendRecv(partner, data, partner, tag)
}
