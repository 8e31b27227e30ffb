package comm

import (
	"errors"
	"testing"
	"time"
)

// shortResilience keeps failure-path tests fast: receives retry quickly and
// the watchdog window is far below the package test timeout.
func shortResilience() Resilience {
	return Resilience{
		RecvTimeout:   20 * time.Millisecond,
		MaxRetries:    10,
		Backoff:       1.5,
		DeadlockAfter: 150 * time.Millisecond,
	}
}

func TestWatchdogConvertsHangToDeadlockError(t *testing.T) {
	w := NewWorld(2)
	w.SetResilience(Resilience{DeadlockAfter: 100 * time.Millisecond})
	err := w.Run(func(c *Comm) {
		// Mismatched protocol: both ranks receive, nobody sends.
		c.Recv(1-c.Rank(), 7)
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked ranks = %+v, want both", de.Blocked)
	}
	for _, b := range de.Blocked {
		if b.Op != "recv" || b.Src != 1-b.Rank || b.Tag != 7 {
			t.Fatalf("blocked op %+v does not name the hung (src, tag)", b)
		}
	}
	// The world must stay usable after the watchdog broke the hang.
	if err := w.Run(func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatalf("world unusable after deadlock: %v", err)
	}
}

func TestRecvTimeoutAfterRetries(t *testing.T) {
	w := NewWorld(2)
	w.SetResilience(Resilience{
		RecvTimeout:   5 * time.Millisecond,
		MaxRetries:    2,
		Backoff:       1.5,
		DeadlockAfter: 10 * time.Second, // timeouts must fire first
	})
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 3) // never sent
		}
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("err = %v, want *RankError on rank 0", err)
	}
}

// TestNonblockingWaitTimesOut: a receive that is never matched times out
// with one retry and no backoff. Named for the retired IRecv(...).Wait; the
// check runs on Recv.
func TestNonblockingWaitTimesOut(t *testing.T) {
	w := NewWorld(2)
	w.SetResilience(Resilience{
		RecvTimeout:   5 * time.Millisecond,
		MaxRetries:    1,
		DeadlockAfter: 10 * time.Second,
	})
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 4) // never sent
		}
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
}

// lossyCollectives runs a representative mix of point-to-point and
// collective traffic and checks the results, returning Run's error.
func lossyCollectives(w *World, p int) error {
	return w.Run(func(c *Comm) {
		sum := c.Allreduce([]float64{float64(c.Rank())}, OpSum)
		want := float64(p*(p-1)) / 2
		if sum[0] != want {
			Throw(errors.New("allreduce result corrupted"))
		}
		got := c.Bcast(0, []float64{42})
		if got[0] != 42 {
			Throw(errors.New("bcast result corrupted"))
		}
		c.Barrier()
	})
}

func TestFaultDropRecoversByRetransmit(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := NewWorld(4)
		w.SetResilience(shortResilience())
		w.SetFaultPlan(&FaultPlan{Seed: seed, Drop: 0.3})
		if err := lossyCollectives(w, 4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFaultCorruptionDetectedAndRecovered(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := NewWorld(4)
		w.SetResilience(shortResilience())
		w.SetFaultPlan(&FaultPlan{Seed: seed, Corrupt: 0.3})
		if err := lossyCollectives(w, 4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFaultDuplicatesFiltered(t *testing.T) {
	w := NewWorld(2)
	w.SetResilience(shortResilience())
	w.SetFaultPlan(&FaultPlan{Seed: 7, Dup: 0.5})
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.Send(1, 5, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 100; i++ {
				got := c.Recv(0, 5)
				if got[0] != float64(i) {
					Throw(errors.New("duplicate leaked into the stream"))
				}
				c.Release(got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultDelayPreservesOrder(t *testing.T) {
	w := NewWorld(3)
	w.SetResilience(shortResilience())
	w.SetFaultPlan(&FaultPlan{Seed: 11, Delay: 0.5, MaxDelay: 2 * time.Millisecond})
	if err := lossyCollectives(w, 3); err != nil {
		t.Fatal(err)
	}
}

func TestFaultMixedRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := NewWorld(4)
		w.SetResilience(shortResilience())
		w.SetFaultPlan(&FaultPlan{
			Seed: seed, Drop: 0.1, Dup: 0.1, Corrupt: 0.1,
			Delay: 0.2, MaxDelay: time.Millisecond,
		})
		if err := lossyCollectives(w, 4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInjectedCrashIsTyped(t *testing.T) {
	w := NewWorld(4)
	w.SetResilience(shortResilience())
	w.SetFaultPlan(&FaultPlan{Seed: 3, CrashRank: 1, CrashAtOp: 3})
	err := lossyCollectives(w, 4)
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want ErrInjectedCrash", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v, want *RankError on rank 1", err)
	}
}

// TestNonblockingOpsUnderInjectedAbort crashes a rank mid-collective while
// the others are parked in the collective's receives; the world must unwind
// with the crash as the only reported error. Named for the retired
// Alltoall/IRecv version; it now runs a ring exchange and Allreduce.
func TestNonblockingOpsUnderInjectedAbort(t *testing.T) {
	w := NewWorld(4)
	w.SetResilience(shortResilience())
	// Ops 1-2 are the ring exchange; op 5 is rank 3's second-round send
	// inside Allreduce.
	w.SetFaultPlan(&FaultPlan{Seed: 2, CrashRank: 3, CrashAtOp: 5})
	err := w.Run(func(c *Comm) {
		p := c.Size()
		c.Send((c.Rank()+p-1)%p, 9, []float64{1})
		c.Recv((c.Rank()+1)%p, 9)
		c.Allreduce([]float64{float64(c.Rank())}, OpSum)
		c.Barrier()
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want ErrInjectedCrash", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 3 {
		t.Fatalf("err = %v, want *RankError on rank 3 (cascades must not mask it)", err)
	}
	// Removing the plan restores a healthy world.
	w.SetFaultPlan(nil)
	if err := w.Run(func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedStallFeedsWatchdog(t *testing.T) {
	w := NewWorld(2)
	w.SetResilience(Resilience{DeadlockAfter: 100 * time.Millisecond})
	w.SetFaultPlan(&FaultPlan{Seed: 5, StallRank: 1, StallAtOp: 1}) // StallFor 0: forever
	err := w.Run(func(c *Comm) {
		c.Barrier()
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	foundStall := false
	for _, b := range de.Blocked {
		if b.Rank == 1 && b.Op == "stall" {
			foundStall = true
		}
	}
	if !foundStall {
		t.Fatalf("DeadlockError %v does not name rank 1's stall", de)
	}
}

func TestFiniteStallRecovers(t *testing.T) {
	w := NewWorld(2)
	w.SetResilience(Resilience{DeadlockAfter: 2 * time.Second})
	w.SetFaultPlan(&FaultPlan{Seed: 5, StallRank: 0, StallAtOp: 2, StallFor: 20 * time.Millisecond})
	if err := w.Run(func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	outcome := func() string {
		w := NewWorld(4)
		w.SetResilience(shortResilience())
		w.SetFaultPlan(&FaultPlan{Seed: 99, Drop: 0.2, Corrupt: 0.2, CrashRank: 2, CrashAtOp: 9})
		err := lossyCollectives(w, 4)
		if err == nil {
			return "ok"
		}
		return err.Error()
	}
	first := outcome()
	for i := 0; i < 3; i++ {
		if got := outcome(); got != first {
			t.Fatalf("replay %d diverged: %q vs %q", i, got, first)
		}
	}
}
