// Package commlock is a fixture for the commlock analyzer.
package commlock

import (
	"sync"

	"blocktri/internal/comm"
)

type state struct {
	mu   sync.Mutex
	data []float64
}

func lockedRecv(c *comm.Comm, s *state) {
	s.mu.Lock()
	s.data = c.Recv(0, 7) // want `comm\.Recv while s\.mu is locked`
	s.mu.Unlock()
}

func deferredUnlock(c *comm.Comm, s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Barrier() // want `comm\.Barrier while s\.mu is locked`
}

func readLocked(c *comm.Comm, data []float64) []float64 {
	var rw sync.RWMutex
	rw.RLock()
	out := c.Allreduce(data, comm.OpSum) // want `comm\.Allreduce while rw is locked`
	rw.RUnlock()
	return out
}

func nonblockingOK(c *comm.Comm, s *state) {
	s.mu.Lock()
	c.Release(s.data) // ok: Release does not wait on another rank
	s.mu.Unlock()
}

func unlockedOK(c *comm.Comm, s *state) {
	s.mu.Lock()
	s.data = append(s.data, 1)
	s.mu.Unlock()
	s.data = c.Recv(0, 7) // ok: lock released before the receive
}
