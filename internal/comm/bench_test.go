package comm

import (
	"fmt"
	"testing"
)

// Substrate microbenchmarks for the message-passing runtime: the per-call
// overheads here bound how fine-grained the solvers' communication can be.

func BenchmarkSendRecv(b *testing.B) {
	for _, words := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			w := NewWorld(2)
			payload := make([]float64, words)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(func(c *Comm) {
					if c.Rank() == 0 {
						c.Send(1, 0, payload)
					} else {
						c.Recv(0, 0)
					}
				})
			}
			b.SetBytes(int64(8 * words))
		})
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for _, p := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			w := NewWorld(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(func(c *Comm) {
					c.Allreduce([]float64{float64(c.Rank())}, OpSum)
				})
			}
		})
	}
}

// BenchmarkMailboxWakeups measures mailbox contention: rank 0 parks on one
// (source, tag) queue while a flood of messages lands on its other queues.
// With the per-queue condition variables a put wakes only a receiver
// waiting on that queue, so the flood causes zero spurious wakeups of the
// parked rank; the old mailbox-wide Broadcast woke it once per message.
func BenchmarkMailboxWakeups(b *testing.B) {
	const (
		senders  = 7
		perRank  = 16
		lastRank = senders + 1
	)
	w := NewWorld(senders + 2)
	payload := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			switch r := c.Rank(); {
			case r == 0:
				// Park on the release message while the flood arrives on
				// the senders' queues, then drain the flood.
				c.Release(c.Recv(lastRank, 1))
				for s := 1; s <= senders; s++ {
					for k := 0; k < perRank; k++ {
						c.Release(c.Recv(s, 0))
					}
				}
			case r <= senders:
				for k := 0; k < perRank; k++ {
					c.Send(0, 0, payload)
				}
				c.Send(lastRank, 2, nil)
			default:
				// Release rank 0 only after every sender has flooded it.
				for s := 1; s <= senders; s++ {
					c.Recv(s, 2)
				}
				c.Send(0, 1, nil)
			}
		})
	}
}

func BenchmarkWorldSpawn(b *testing.B) {
	// The fixed cost of one collective step: spawning and joining ranks.
	for _, p := range []int{4, 32} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			w := NewWorld(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(func(c *Comm) {})
			}
		})
	}
}
