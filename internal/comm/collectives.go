package comm

// Collective message tags live in a reserved high range so user
// point-to-point traffic (small non-negative tags) can never collide with
// them. FIFO matching per (source, tag) makes reuse across successive
// collectives safe as long as all ranks invoke the same collective
// sequence, which is the usual MPI contract.
const (
	tagBarrier = 1<<30 + iota
	tagBcast
	tagReduce
	tagGather
)

// ReduceOp combines src into dst elementwise; it must be associative over
// the slices it is applied to. The slices always have equal length.
type ReduceOp func(dst, src []float64)

// OpSum is elementwise addition.
func OpSum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// OpMax is elementwise maximum.
func OpMax(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Barrier blocks until every rank has entered it, using the dissemination
// algorithm: ceil(log2 P) rounds of shifted exchanges.
func (c *Comm) Barrier() {
	p := c.Size()
	for dist := 1; dist < p; dist <<= 1 {
		dst := (c.rank + dist) % p
		src := (c.rank - dist + p) % p
		c.Send(dst, tagBarrier, nil)
		c.Recv(src, tagBarrier)
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns the received copy (root returns data unchanged). All ranks must
// call it; non-root ranks may pass nil.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	p := c.Size()
	if root < 0 || root >= p {
		c.throwf(ErrInvalidRank, "comm: Bcast root %d (P=%d)", root, p)
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			data = c.Recv(src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			c.Send(dst, tagBcast, data)
		}
		mask >>= 1
	}
	return data
}

// reduce combines every rank's data with op along a binomial tree and
// returns the result at root (nil elsewhere): Allreduce's path for worlds
// whose size is not a power of two. The reduction order is deterministic
// for a given P. data is not modified.
func (c *Comm) reduce(root int, data []float64, op ReduceOp) []float64 {
	p := c.Size()
	if root < 0 || root >= p {
		c.throwf(ErrInvalidRank, "comm: reduce root %d (P=%d)", root, p)
	}
	acc := make([]float64, len(data))
	copy(acc, data)
	rel := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % p
			c.Send(dst, tagReduce, acc)
			return nil
		}
		partner := rel | mask
		if partner < p {
			src := (partner + root) % p
			recv := c.Recv(src, tagReduce)
			if len(recv) != len(acc) {
				c.throwf(ErrLengthMismatch, "comm: reduce got %d floats from rank %d, want %d", len(recv), src, len(acc))
			}
			op(acc, recv)
		}
	}
	return acc
}

// Allreduce combines every rank's data with op and returns the result on
// all ranks. For power-of-two worlds it uses the recursive doubling
// exchange pattern (log2 P rounds of pairwise exchanges); otherwise it
// falls back to reduce-then-Bcast. Both paths combine contributions in
// ascending rank order, so merely-associative (non-commutative) ops are
// safe and all ranks obtain bit-identical results.
func (c *Comm) Allreduce(data []float64, op ReduceOp) []float64 {
	p := c.Size()
	if p&(p-1) == 0 {
		acc := make([]float64, len(data))
		copy(acc, data)
		for mask := 1; mask < p; mask <<= 1 {
			partner := c.rank ^ mask
			recv := c.Exchange(partner, tagReduce, acc)
			if len(recv) != len(acc) {
				c.throwf(ErrLengthMismatch, "comm: Allreduce got %d floats from rank %d, want %d", len(recv), partner, len(acc))
			}
			// Keep a canonical order (lower rank's contribution first) so
			// all ranks compute bit-identical results even for merely
			// associative ops.
			if partner < c.rank {
				op(recv, acc)
				acc = recv
			} else {
				op(acc, recv)
			}
		}
		return acc
	}
	res := c.reduce(0, data, op)
	return c.Bcast(0, res)
}

// Gather collects every rank's data at root in rank order; root receives
// the slices (including its own, shared not copied) and other ranks get
// nil. Payload lengths may differ between ranks.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	p := c.Size()
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		if r == root {
			out[r] = data
			continue
		}
		out[r] = c.Recv(r, tagGather)
	}
	return out
}
