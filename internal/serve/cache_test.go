package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/core"
)

// fakeBuild returns a build function that reports bytes and counts calls.
func fakeBuild(calls *atomic.Int64, bytes int64, delay time.Duration, err error) func() (*core.ARD, *blocktri.Matrix, int64, error) {
	return func() (*core.ARD, *blocktri.Matrix, int64, error) {
		calls.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		return nil, nil, bytes, nil
	}
}

// TestCacheSingleflight: many concurrent acquires for one key run build
// exactly once; everyone else joins the in-flight factorization.
func TestCacheSingleflight(t *testing.T) {
	fc := newFactorCache(1 << 20)
	var calls atomic.Int64
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := fc.acquire("k", fakeBuild(&calls, 100, 20*time.Millisecond, nil))
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			fc.release(e)
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("build ran %d times for one key, want exactly 1", n)
	}
	stats, bytes := fc.snapshot()
	if stats.Misses != 1 || stats.Hits+stats.InflightJoins != waiters-1 {
		t.Fatalf("stats %+v: want 1 miss and %d hits+joins", stats, waiters-1)
	}
	if bytes != 100 {
		t.Fatalf("cache holds %d bytes, want 100", bytes)
	}
}

// TestCachePinnedNeverEvicted: entries pinned by an in-flight factorization
// or an active solve survive arbitrary cache pressure; eviction happens
// only once the pin is dropped. This is the structural guarantee that a
// flood of requests (or sheds) cannot yank a factor from under another
// tenant's in-flight work.
func TestCachePinnedNeverEvicted(t *testing.T) {
	fc := newFactorCache(50) // everything below is over budget
	var calls atomic.Int64
	ea, _, err := fc.acquire("a", fakeBuild(&calls, 100, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	eb, _, err := fc.acquire("b", fakeBuild(&calls, 100, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !fc.contains("a") || !fc.contains("b") {
		t.Fatal("pinned entries must stay resident even over budget")
	}
	if _, bytes := fc.snapshot(); bytes != 200 {
		t.Fatalf("cache accounts %d bytes, want 200", bytes)
	}

	fc.release(eb) // b unpinned: it is the only evictable entry
	if fc.contains("b") {
		t.Fatal("unpinned over-budget entry b not evicted")
	}
	if !fc.contains("a") {
		t.Fatal("still-pinned entry a was evicted by pressure")
	}
	fc.release(ea)
	if fc.contains("a") {
		t.Fatal("a not evicted after its pin dropped")
	}
	if _, bytes := fc.snapshot(); bytes != 0 {
		t.Fatalf("cache leaks %d bytes after evicting everything", bytes)
	}
}

// TestCacheFailedBuildNotCached: a failed factorization propagates its
// error to all waiters and leaves nothing behind — the next acquire
// rebuilds.
func TestCacheFailedBuildNotCached(t *testing.T) {
	fc := newFactorCache(1 << 20)
	boom := errors.New("boom")
	var calls atomic.Int64
	if _, _, err := fc.acquire("k", fakeBuild(&calls, 0, 0, boom)); !errors.Is(err, boom) {
		t.Fatalf("acquire error = %v, want boom", err)
	}
	if fc.contains("k") {
		t.Fatal("failed factorization was cached")
	}
	e, warm, err := fc.acquire("k", fakeBuild(&calls, 10, 0, nil))
	if err != nil || warm {
		t.Fatalf("rebuild after failure: warm=%v err=%v", warm, err)
	}
	fc.release(e)
	if calls.Load() != 2 {
		t.Fatalf("build calls = %d, want 2 (fail, then rebuild)", calls.Load())
	}
}

// TestCacheLRUOrder: with capacity for two entries, touching the older one
// flips which entry a third insertion evicts.
func TestCacheLRUOrder(t *testing.T) {
	fc := newFactorCache(200)
	var calls atomic.Int64
	for _, k := range []string{"a", "b"} {
		e, _, err := fc.acquire(k, fakeBuild(&calls, 100, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		fc.release(e)
	}
	// Touch a: now b is least recently used.
	e, warm, err := fc.acquire("a", nil)
	if err != nil || !warm {
		t.Fatalf("warm hit on a: warm=%v err=%v", warm, err)
	}
	fc.release(e)
	e, _, err = fc.acquire("c", fakeBuild(&calls, 100, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	fc.release(e)
	if fc.contains("b") {
		t.Fatal("LRU should have evicted b (a was touched)")
	}
	if !fc.contains("a") || !fc.contains("c") {
		t.Fatal("a and c should be resident")
	}
}

// TestMatrixKeyStable pins the content keys of a few matrices, a single
// block row among them. A key is a digest of WriteTo's bytes, so a change
// to the serialization would silently give the same matrix a new key.
func TestMatrixKeyStable(t *testing.T) {
	one := blocktri.New(1, 2)
	one.Diag[0].Set(0, 0, 4)
	one.Diag[0].Set(0, 1, -1.5)
	one.Diag[0].Set(1, 1, 3)
	for _, tc := range []struct {
		a    *blocktri.Matrix
		want string
	}{
		{blocktri.Oscillatory(128, 8, rand.New(rand.NewSource(1))), "38e4d647519c9f3c1f07256de889f2f8"},
		{blocktri.RandomDiagDominant(17, 3, rand.New(rand.NewSource(2))), "2d494df5dfb0a3515d22740ecad78fdd"},
		{blocktri.Poisson2D(8, 64), "e2f4e122b0ea53ea92194d08efccbee2"},
		{one, "76615e0b1da96d4718741015e9931c5d"},
	} {
		got, err := MatrixKey(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("N=%d M=%d: key %s, want %s", tc.a.N, tc.a.M, got, tc.want)
		}
	}
}

// TestMatrixKeyAllocationBound: hashing a matrix encodes one block row at
// a time into a reused buffer, so its allocation count does not grow with
// the number of values (this matrix has 24,448).
func TestMatrixKeyAllocationBound(t *testing.T) {
	a := blocktri.Oscillatory(128, 8, rand.New(rand.NewSource(1)))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := MatrixKey(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("MatrixKey: %v allocs/op, want <= 16", allocs)
	}
}
