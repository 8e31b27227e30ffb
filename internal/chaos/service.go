// Service-level chaos: concurrent tenants against a fault-injected
// blocktri-serve backend.
//
// The solver-level harness (chaos.go) proves each solver fails cleanly
// under injected faults; this file proves the layer above — admission,
// caching, coalescing, retry, breaker, boost — preserves that contract
// under multi-tenant concurrency. The invariant is stricter than the
// solver one, because the service makes stronger promises:
//
//   - every request ends in a correct solution or a clean typed error
//     (serve's vocabulary or the runtime's), never an untyped error or an
//     escaped panic;
//   - every request returns within its deadline plus bounded slack —
//     never a hang and never a cross-tenant stall;
//   - when the campaign ends and the server closes, no goroutine leaks:
//     the count drains back to the pre-campaign baseline.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/serve"
)

// ServiceOptions configures a service-level chaos campaign. The zero value
// of any field selects the default used by DefaultServiceOptions.
type ServiceOptions struct {
	// Seed drives every random choice: matrix pool, request mix, injected
	// faults. Same seed, same campaign.
	Seed int64
	// Tenants is the number of concurrent client goroutines.
	Tenants int
	// Requests is the total request count across all tenants.
	Requests int
	// Matrices is the size of the shared matrix pool tenants draw from;
	// small pools force cache contention and coalescing, large pools force
	// eviction.
	Matrices int
	// P is the rank count of each backend world.
	P int
	// QueueDepth bounds the server's admission queue; small values make
	// load shedding part of the campaign.
	QueueDepth int
	// CacheBytes bounds the server's factor cache.
	CacheBytes int64
	// Deadline is the per-request deadline.
	Deadline time.Duration
	// Grace is the slack past Deadline a Submit may take before the
	// campaign calls it a stall.
	Grace time.Duration
	// Fault, when non-nil, replaces the seeded default backend fault plan.
	Fault *comm.FaultPlan
	// Log, when non-nil, receives a short line per tenant.
	Log io.Writer
}

// DefaultServiceOptions is the standard campaign for a seed: enough
// tenants and requests to exercise shedding, coalescing, retries, and
// eviction on a single-package test budget.
func DefaultServiceOptions(seed int64) ServiceOptions {
	return ServiceOptions{
		Seed:       seed,
		Tenants:    5,
		Requests:   120,
		Matrices:   6,
		P:          2,
		QueueDepth: 16,
		CacheBytes: 1 << 20,
		Deadline:   10 * time.Second,
		Grace:      5 * time.Second,
	}
}

func (o ServiceOptions) withDefaults() ServiceOptions {
	d := DefaultServiceOptions(o.Seed)
	if o.Tenants < 1 {
		o.Tenants = d.Tenants
	}
	if o.Requests < 1 {
		o.Requests = d.Requests
	}
	if o.Matrices < 1 {
		o.Matrices = d.Matrices
	}
	if o.P < 1 {
		o.P = d.P
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = d.QueueDepth
	}
	if o.CacheBytes < 1 {
		o.CacheBytes = d.CacheBytes
	}
	if o.Deadline <= 0 {
		o.Deadline = d.Deadline
	}
	if o.Grace <= 0 {
		o.Grace = d.Grace
	}
	return o
}

// ServiceReport aggregates a service campaign.
type ServiceReport struct {
	Requests  int
	Solved    int
	TypedErrs int
	// Breakdown of the typed errors the ladder is expected to produce.
	Shed      int
	Deadlined int
	Circuit   int
	// Boosted counts solves that went through graceful degradation.
	Boosted int
	// Warm counts solves served from a cached factorization.
	Warm int
	// Violations lists every broken promise, one line each.
	Violations []string
	// GoroutinesBefore/After are the leak-check bounds: After is sampled
	// once the server is closed and must drain to at most Before.
	GoroutinesBefore, GoroutinesAfter int
	Wall                              time.Duration
	// Stats is the server's own final counter snapshot.
	Stats serve.Stats
}

// Ok reports whether every service promise held.
func (r *ServiceReport) Ok() bool { return len(r.Violations) == 0 }

// typedServiceFailure reports whether err belongs to the service's clean
// failure vocabulary: serve's sentinels or a typed backend failure that
// exhausted its retry budget.
func typedServiceFailure(err error) bool {
	return errors.Is(err, serve.ErrOverloaded) ||
		errors.Is(err, serve.ErrCircuitOpen) ||
		errors.Is(err, serve.ErrDeadlineExceeded) ||
		errors.Is(err, serve.ErrCanceled) ||
		errors.Is(err, serve.ErrBadRequest) ||
		errors.Is(err, serve.ErrUnknownMatrix) ||
		typedFailure(err)
}

// defaultServiceFault is the seeded backend plan: recoverable message
// faults at rates the retransmit protocol absorbs, plus one crash at the
// first operation of a seeded rank. RunService's probe request is the
// first run on the world, so the crash always lands in a factorization
// the service retries, never in one whose failure a fallback absorbs.
func defaultServiceFault(rng *rand.Rand, p int) *comm.FaultPlan {
	return &comm.FaultPlan{
		Seed:      rng.Int63(),
		Drop:      0.03 + rng.Float64()*0.04,
		Dup:       0.03 + rng.Float64()*0.04,
		Corrupt:   0.02 + rng.Float64()*0.03,
		CrashRank: rng.Intn(p),
		CrashAtOp: 1,
	}
}

// RunService executes one service-level chaos campaign.
func RunService(opts ServiceOptions) *ServiceReport {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &ServiceReport{Requests: opts.Requests}

	// The matrix pool: well-conditioned systems of varied shape, plus one
	// boost-requiring matrix (singular super-diagonal block) so graceful
	// degradation is part of every campaign.
	type poolEntry struct {
		a     *blocktri.Matrix
		boost bool
	}
	pool := make([]poolEntry, opts.Matrices)
	for i := range pool {
		n := 2*opts.P + rng.Intn(10)
		m := 1 + rng.Intn(2)
		a := blocktri.RandomDiagDominant(n, m, rng)
		if i == len(pool)-1 && n > 2 {
			a.Upper[n/2].Zero()
			pool[i] = poolEntry{a: a, boost: true}
			continue
		}
		pool[i] = poolEntry{a: a}
	}

	fault := opts.Fault
	if fault == nil {
		fault = defaultServiceFault(rng, opts.P)
	}
	rep.GoroutinesBefore = runtime.NumGoroutine()
	srv := serve.New(serve.Config{
		P:          opts.P,
		CacheBytes: opts.CacheBytes,
		QueueDepth: opts.QueueDepth,
		Seed:       opts.Seed,
		FaultPlan:  fault,
	})

	var (
		mu         sync.Mutex
		violations []string
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	// The probe: one fixed request on a well-conditioned pool matrix, sent
	// before the tenants start so it is the first run on the backend world.
	// It is held to the same promise as every tenant request.
	for _, pe := range pool {
		if pe.boost {
			continue
		}
		b := pe.a.RandomRHS(1, rand.New(rand.NewSource(opts.Seed)))
		res, err := srv.Submit(context.Background(), serve.Job{
			Tenant:   "probe",
			Matrix:   pe.a,
			B:        b,
			Deadline: time.Now().Add(opts.Deadline),
		})
		switch {
		case err == nil:
			if r := pe.a.RelResidual(res.X, b); r > 1e-6 {
				violate("probe request: silent wrong answer, residual %.3e", r)
			}
		case !typedServiceFailure(err):
			violate("probe request: untyped error: %v", err)
		}
		break
	}

	// Per-tenant request streams. Each tenant owns a decorrelated rng so
	// the campaign replays identically regardless of scheduling.
	perTenant := opts.Requests / opts.Tenants
	extra := opts.Requests % opts.Tenants
	start := time.Now()
	var wg sync.WaitGroup
	counts := struct {
		sync.Mutex
		solved, typed, shed, deadlined, circuit, boosted, warm int
	}{}
	for t := 0; t < opts.Tenants; t++ {
		n := perTenant
		if t < extra {
			n++
		}
		wg.Add(1)
		go func(tenant int, n int, seed int64) {
			defer wg.Done()
			trng := rand.New(rand.NewSource(seed))
			name := fmt.Sprintf("tenant-%d", tenant)
			for i := 0; i < n; i++ {
				pe := pool[trng.Intn(len(pool))]
				b := pe.a.RandomRHS(1+trng.Intn(2), rand.New(rand.NewSource(trng.Int63())))
				reqStart := time.Now()
				res, err := srv.Submit(context.Background(), serve.Job{
					Tenant:   name,
					Matrix:   pe.a,
					B:        b,
					Deadline: reqStart.Add(opts.Deadline),
				})
				wall := time.Since(reqStart)
				if wall > opts.Deadline+opts.Grace {
					violate("%s request %d stalled: returned after %v (deadline %v + grace %v)",
						name, i, wall.Round(time.Millisecond), opts.Deadline, opts.Grace)
				}
				switch {
				case err == nil:
					tol := 1e-6
					if res.Boosted {
						// Boosted answers are refined against a perturbed
						// factorization; hold them to the gross-error bound.
						tol = 1e-2
					}
					if r := pe.a.RelResidual(res.X, b); r > tol {
						violate("%s request %d: silent wrong answer, residual %.3e > %.0e", name, i, r, tol)
						continue
					}
					counts.Lock()
					counts.solved++
					if res.Boosted {
						counts.boosted++
					}
					if res.Warm {
						counts.warm++
					}
					counts.Unlock()
				case typedServiceFailure(err):
					counts.Lock()
					counts.typed++
					switch {
					case errors.Is(err, serve.ErrOverloaded):
						counts.shed++
					case errors.Is(err, serve.ErrDeadlineExceeded):
						counts.deadlined++
					case errors.Is(err, serve.ErrCircuitOpen):
						counts.circuit++
					}
					counts.Unlock()
				default:
					violate("%s request %d: untyped error: %v", name, i, err)
				}
			}
		}(t, n, opts.Seed^int64(t+1)*0x7f4a7c15)
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	rep.Stats = srv.Stats()
	srv.Close()

	// Leak check: after Close, the goroutine count must drain back to the
	// pre-campaign baseline (polled — rank workers exit asynchronously
	// after their stop signal).
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		rep.GoroutinesAfter = runtime.NumGoroutine()
		if rep.GoroutinesAfter <= rep.GoroutinesBefore || time.Now().After(drainDeadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rep.GoroutinesAfter > rep.GoroutinesBefore {
		violate("goroutine leak: %d before campaign, %d after server close",
			rep.GoroutinesBefore, rep.GoroutinesAfter)
	}

	rep.Solved = counts.solved
	rep.TypedErrs = counts.typed
	rep.Shed = counts.shed
	rep.Deadlined = counts.deadlined
	rep.Circuit = counts.circuit
	rep.Boosted = counts.boosted
	rep.Warm = counts.warm
	rep.Violations = violations
	if rep.Solved+rep.TypedErrs != opts.Requests {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"request accounting broken: %d solved + %d typed != %d submitted",
			rep.Solved, rep.TypedErrs, opts.Requests))
	}
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "service campaign: %d requests, %d solved (%d warm, %d boosted), %d typed errors (%d shed, %d deadlined, %d circuit), %d violations, wall %v\n",
			rep.Requests, rep.Solved, rep.Warm, rep.Boosted, rep.TypedErrs,
			rep.Shed, rep.Deadlined, rep.Circuit, len(rep.Violations), rep.Wall.Round(time.Millisecond))
	}
	return rep
}
