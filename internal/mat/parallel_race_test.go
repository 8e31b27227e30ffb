package mat

import (
	"sync"
	"testing"
)

// TestMulAddPackedParallelRace runs Mul and MulAddPacked from four
// goroutines at once on one shared PackedA, with every pack scratch drawn
// from the pack pool. Under -race this proves a pack is safely shared
// read-only across concurrent callers and that the pool hands each buffer
// to one caller at a time; every result must equal a lone caller's bit for
// bit.
func TestMulAddPackedParallelRace(t *testing.T) {
	const m, k, n = 64, 64, 64 // packed on both kernel sets
	a, b := New(m, k), New(k, n)
	fillSeq(a, 0.5)
	fillSeq(b, 0.25)
	pa := NewPackedA(1, a)
	wantMul, wantPacked := New(m, n), New(m, n)
	Mul(wantMul, a, b)
	MulAddPacked(wantPacked, pa, b, nil)

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			got := New(m, n)
			for i := 0; i < 10; i++ {
				Mul(got, a, b)
				if !got.Equal(wantMul) {
					t.Error("concurrent Mul differs from a lone caller's result")
					return
				}
				got.Zero()
				MulAddPacked(got, pa, b, nil)
				if !got.Equal(wantPacked) {
					t.Error("concurrent MulAddPacked differs from a lone caller's result")
					return
				}
			}
		}()
	}
	workers.Wait()
}
