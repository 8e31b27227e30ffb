// Package commlock is a fixture for lockorder's blocking-while-locked rule
// on comm operations: a rank blocked in comm while holding a lock deadlocks
// the World. TestAnalyzersOnFixtures checks it with the lockorder analyzer.
package commlock

import (
	"sync"

	"blocktri/internal/comm"
	"blocktri/internal/mat"
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

func lockedBcast(c *comm.Comm, s *state, x0 *mat.Matrix) {
	s.mu.Lock()
	c.BcastMatrixInto(0, x0) // want `comm\.BcastMatrixInto while s\.mu is locked`
	s.mu.Unlock()
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
