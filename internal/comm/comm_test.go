package comm

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				panic("payload corrupted")
			}
		}
	})
	if w.Pending() != 0 {
		t.Fatalf("%d messages leaked", w.Pending())
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // mutate after send; receiver must still see 42
		} else {
			if got := c.Recv(0, 0); got[0] != 42 {
				panic("send did not copy payload")
			}
		}
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.Send(1, 5, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 100; i++ {
				if got := c.Recv(0, 5); got[0] != float64(i) {
					panic("FIFO order violated")
				}
			}
		}
	})
}

func TestTagsSegregateMessages(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{10})
			c.Send(1, 2, []float64{20})
		} else {
			// Receive in the opposite order of sending: tags must match.
			if got := c.Recv(0, 2); got[0] != 20 {
				panic("tag 2 mismatched")
			}
			if got := c.Recv(0, 1); got[0] != 10 {
				panic("tag 1 mismatched")
			}
		}
	})
}

func TestSendToSelf(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		c.Send(0, 3, []float64{9})
		if got := c.Recv(0, 3); got[0] != 9 {
			panic("self-send failed")
		}
	})
}

func TestInvalidRankReturnsTypedError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 0, nil)
		}
	})
	if !errors.Is(err, ErrInvalidRank) {
		t.Fatalf("err = %v, want ErrInvalidRank", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("err = %v, want *RankError on rank 0", err)
	}
}

// TestIRecvInvalidRank: a receive naming an out-of-range source fails with
// a typed ErrInvalidRank. Named for the retired IRecv; the check runs on Recv.
func TestIRecvInvalidRank(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(7, 0)
		}
	})
	if !errors.Is(err, ErrInvalidRank) {
		t.Fatalf("err = %v, want ErrInvalidRank", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("err = %v, want *RankError on rank 0", err)
	}
}

func TestRunConvertsPanicToRankError(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RankError", err)
	}
	if re.Rank != 2 || !strings.Contains(re.Err.Error(), "boom") {
		t.Fatalf("RankError = rank %d cause %v, want rank 2 / boom", re.Rank, re.Err)
	}
	if len(re.Stack) == 0 {
		t.Fatal("RankError should carry the failing stack")
	}
}

func TestThrowSurfacesCause(t *testing.T) {
	w := NewWorld(2)
	cause := errors.New("domain failure")
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			Throw(cause)
		}
		// Rank 0 blocks so the abort path must unwind it as a cascade
		// victim without masking rank 1's primary error.
		c.Recv(1, 3)
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want wrapped cause", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v, want *RankError on rank 1", err)
	}
}

func TestExchangeSymmetric(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		partner := c.Rank() ^ 1
		got := c.Exchange(partner, 9, []float64{float64(c.Rank())})
		if got[0] != float64(partner) {
			panic("exchange returned wrong payload")
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		w := NewWorld(p)
		var before, violations int32
		w.Run(func(c *Comm) {
			atomic.AddInt32(&before, 1)
			c.Barrier()
			if atomic.LoadInt32(&before) != int32(p) {
				atomic.AddInt32(&violations, 1)
			}
		})
		if violations != 0 {
			t.Fatalf("P=%d: rank passed barrier before all arrived", p)
		}
	}
}

func TestBcastAllRoots(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 9, 16} {
		for root := 0; root < p; root += max(1, p/3) {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.14, float64(root)}
				}
				got := c.Bcast(root, data)
				if len(got) != 2 || got[0] != 3.14 || got[1] != float64(root) {
					panic("bcast payload wrong")
				}
			})
			if w.Pending() != 0 {
				t.Fatalf("P=%d root=%d: %d leaked messages", p, root, w.Pending())
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 13} {
		for root := 0; root < p; root += max(1, p/2) {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				data := []float64{float64(c.Rank()), 1}
				got := c.reduce(root, data, OpSum)
				if c.Rank() == root {
					wantSum := float64(p*(p-1)) / 2
					if got[0] != wantSum || got[1] != float64(p) {
						panic("reduce sum wrong")
					}
				} else if got != nil {
					panic("non-root got non-nil reduce result")
				}
			})
		}
	}
}

func TestReduceDoesNotModifyInput(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		data := []float64{float64(c.Rank())}
		c.reduce(0, data, OpSum)
		if data[0] != float64(c.Rank()) {
			panic("reduce modified caller's slice")
		}
	})
}

func TestAllreduceSumMaxMin(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 3, 5, 12} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			r := float64(c.Rank())
			sum := c.Allreduce([]float64{r}, OpSum)
			if sum[0] != float64(p*(p-1))/2 {
				panic("allreduce sum wrong")
			}
			mx := c.Allreduce([]float64{r}, OpMax)
			if mx[0] != float64(p-1) {
				panic("allreduce max wrong")
			}
			// The minimum is the negated maximum of the negated values.
			mn := c.Allreduce([]float64{-r}, OpMax)
			if -mn[0] != 0 {
				panic("allreduce min wrong")
			}
		})
	}
}

// opConcat2 is an associative, non-commutative operation on length-2
// slices encoding string concatenation via positional digits: it verifies
// ordering guarantees. Encoding: value = digits concatenated base 10, len.
func opConcat2(dst, src []float64) {
	// dst := dst || src, where each slice is [value, numDigits].
	dst[0] = dst[0]*math.Pow(10, src[1]) + src[0]
	dst[1] += src[1]
}

func TestAllreduceNonCommutativeOrder(t *testing.T) {
	for _, p := range []int{2, 4, 8, 3, 6} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			// Each rank contributes its 1-digit id (ranks < 10 here).
			got := c.Allreduce([]float64{float64(c.Rank() + 1), 1}, opConcat2)
			want := 0.0
			for r := 1; r <= p; r++ {
				want = want*10 + float64(r)
			}
			if got[0] != want {
				panic("allreduce order not ascending-rank")
			}
		})
	}
}

// checkAllreduceLengthMismatch: ranks contributing different lengths end
// the run with a typed ErrLengthMismatch.
func checkAllreduceLengthMismatch(t *testing.T, p int) {
	t.Helper()
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		c.Allreduce(make([]float64, 1+c.Rank()), OpSum)
	})
	if !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("P=%d: err = %v, want ErrLengthMismatch", p, err)
	}
}

// TestAlltoallWrongPieceCount checks the length check on Allreduce's
// pairwise-exchange path (power-of-two world). Named for the retired
// Alltoall, whose piece-count check it replaces.
func TestAlltoallWrongPieceCount(t *testing.T) { checkAllreduceLengthMismatch(t, 2) }

// TestReduceScatterBadCounts checks the length check on Allreduce's
// reduce-then-broadcast path (P not a power of two). Named for the retired
// ReduceScatter, whose count check it replaces.
func TestReduceScatterBadCounts(t *testing.T) { checkAllreduceLengthMismatch(t, 3) }

func TestGather(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			// Variable-length payloads: rank r sends r+1 copies of r.
			data := make([]float64, c.Rank()+1)
			for i := range data {
				data[i] = float64(c.Rank())
			}
			got := c.Gather(p-1, data)
			if c.Rank() != p-1 {
				if got != nil {
					panic("non-root gather result must be nil")
				}
				return
			}
			for r := 0; r < p; r++ {
				if len(got[r]) != r+1 || got[r][0] != float64(r) {
					panic("gather piece wrong")
				}
			}
		})
	}
}

func TestStatsCounts(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10)) // 80 bytes
		} else {
			c.Recv(0, 0)
		}
	})
	total := w.TotalStats()
	if total.MsgsSent != 1 || total.BytesSent != 80 {
		t.Fatalf("send stats wrong: %+v", total)
	}
	if total.MsgsRecv != 1 || total.BytesRecv != 80 {
		t.Fatalf("recv stats wrong: %+v", total)
	}
	wantTime := 2 * (w.Model.Alpha + 80*w.Model.Beta) // sender + receiver
	if math.Abs(total.SimCommTime-wantTime) > 1e-18 {
		t.Fatalf("sim time %v want %v", total.SimCommTime, wantTime)
	}
}

func TestMaxSimCommTimeAndReset(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for dst := 1; dst < 4; dst++ {
				c.Send(dst, 0, make([]float64, 100))
			}
		} else {
			c.Recv(0, 0)
		}
	})
	if w.MaxSimCommTime() <= 0 {
		t.Fatal("MaxSimCommTime should be positive")
	}
	w.ResetTotals()
	if s := w.TotalStats(); s.MsgsSent != 0 || s.SimCommTime != 0 {
		t.Fatalf("ResetTotals did not clear: %+v", s)
	}
}

func TestCostModelMessageCost(t *testing.T) {
	m := CostModel{Alpha: 2, Beta: 0.5}
	if got := m.MessageCost(10); got != 7 {
		t.Fatalf("MessageCost = %v want 7", got)
	}
}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(0)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestManyWorldsStress creates and runs many worlds concurrently-ish to
// shake out state leakage between Run calls.
func TestManyWorldsStress(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		p := 1 + trial%6
		w := NewWorld(p)
		for round := 0; round < 3; round++ {
			w.Run(func(c *Comm) {
				sum := c.Allreduce([]float64{float64(c.Rank())}, OpSum)
				if sum[0] != float64(p*(p-1))/2 {
					panic("allreduce wrong under reuse")
				}
				got := c.Gather(0, []float64{float64(c.Rank())})
				for r := range got {
					if got[r][0] != float64(r) {
						panic("gather wrong under reuse")
					}
				}
			})
			if w.Pending() != 0 {
				t.Fatalf("trial %d round %d: leaked messages", trial, round)
			}
		}
	}
}

// TestWorldReusableAfterPanic verifies a world recovers for subsequent
// Run calls after a rank failure aborted it.
func TestWorldReusableAfterPanic(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("induced")
		}
		// Other ranks block so the abort path must wake them.
		c.Recv(1, 99)
	})
	if err == nil {
		t.Fatal("expected a *RankError from the failed run")
	}
	// Drain any stale messages: a fresh Run must still work because all
	// queues from the failed round were never consumed under new tags.
	w.Run(func(c *Comm) {
		got := c.Bcast(0, []float64{float64(c.Rank() + 42)})
		if got[0] != 42 {
			panic("bcast after recovery wrong")
		}
	})
}
