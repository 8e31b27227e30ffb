package comm

import (
	"fmt"
	"math"

	"blocktri/internal/mat"
)

// Matrix payload helpers. A matrix is shipped as [rows, cols, row-major
// data...]; the two dimension words count toward the message size, matching
// the header cost a real MPI datatype would carry.
//
// The Try* decoders validate untrusted payloads and return an error
// wrapping ErrMalformedPayload; the plain decoders are their rank-body
// counterparts that Throw on malformed input, so a garbled message aborts
// the rank with a typed cause instead of panicking the process.

// EncodeMatrix flattens m into a payload slice understood by DecodeMatrix.
func EncodeMatrix(m *mat.Matrix) []float64 {
	out := make([]float64, 2+m.Rows*m.Cols)
	out[0], out[1] = float64(m.Rows), float64(m.Cols)
	k := 2
	for i := 0; i < m.Rows; i++ {
		copy(out[k:k+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
		k += m.Cols
	}
	return out
}

// MatrixHeader checks the [rows, cols] header of p, a payload that holds
// exactly one matrix, and returns the dimensions. Malformed input is an
// error wrapping ErrMalformedPayload.
func MatrixHeader(p []float64) (rows, cols int, err error) {
	rows, cols, err = headerPrefix(p)
	if err == nil && len(p) != 2+rows*cols {
		err = fmt.Errorf("matrix payload: header says %dx%d, body has %d floats: %w",
			rows, cols, len(p)-2, ErrMalformedPayload)
	}
	return rows, cols, err
}

// headerPrefix checks the header of the matrix payload that starts p,
// which may run on past it, as each part of an EncodeMatrices payload
// does. Each dimension word must be an integer in [0, len(p)], and the
// rows*cols values must fit in p, compared without overflow. The bound on
// each word keeps what a decoded matrix can cost, an empty one included,
// within the size of its payload.
func headerPrefix(p []float64) (rows, cols int, err error) {
	if len(p) < 2 {
		return 0, 0, fmt.Errorf("matrix payload of %d floats has no header: %w", len(p), ErrMalformedPayload)
	}
	rows, okR := sizeWord(p[0], len(p))
	cols, okC := sizeWord(p[1], len(p))
	if !okR || !okC || cols != 0 && rows > (len(p)-2)/cols {
		return 0, 0, fmt.Errorf("matrix payload: header says %vx%v, body has %d floats: %w",
			p[0], p[1], len(p)-2, ErrMalformedPayload)
	}
	return rows, cols, nil
}

// sizeWord converts a payload's dimension or count word w to an int,
// reporting whether w is an integer in [0, limit].
func sizeWord(w float64, limit int) (int, bool) {
	if _, frac := math.Modf(w); w < 0 || w > float64(limit) || frac != 0 { // NaN has a NaN frac
		return 0, false
	}
	return int(w), true
}

// TryDecodeMatrix reconstructs a matrix from an EncodeMatrix payload,
// reporting malformed input as an error wrapping ErrMalformedPayload.
func TryDecodeMatrix(p []float64) (*mat.Matrix, error) {
	r, c, err := MatrixHeader(p)
	if err != nil {
		return nil, err
	}
	return mat.NewFromSlice(r, c, p[2:]), nil
}

// DecodeMatrix reconstructs a matrix from an EncodeMatrix payload. It must
// be called from a rank body: malformed input throws ErrMalformedPayload.
func DecodeMatrix(p []float64) *mat.Matrix {
	m, err := TryDecodeMatrix(p)
	if err != nil {
		Throw(err)
	}
	return m
}

// EncodeMatrices concatenates several matrices into one payload, so a
// logical multi-part message costs a single alpha (latency) charge, the
// way the solvers' bundled exchanges would be implemented over MPI.
func EncodeMatrices(ms ...*mat.Matrix) []float64 {
	total := 1
	for _, m := range ms {
		total += 2 + m.Rows*m.Cols
	}
	out := make([]float64, 0, total)
	out = append(out, float64(len(ms)))
	for _, m := range ms {
		out = append(out, EncodeMatrix(m)...)
	}
	return out
}

// TryDecodeMatrices splits a payload produced by EncodeMatrices, reporting
// malformed input as an error wrapping ErrMalformedPayload.
func TryDecodeMatrices(p []float64) ([]*mat.Matrix, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("empty multi-matrix payload: %w", ErrMalformedPayload)
	}
	// Every part carries at least its two header words.
	n, ok := sizeWord(p[0], (len(p)-1)/2)
	if !ok {
		return nil, fmt.Errorf("multi-matrix payload: count %v with %d floats after it: %w",
			p[0], len(p)-1, ErrMalformedPayload)
	}
	out := make([]*mat.Matrix, 0, n)
	k := 1
	for i := 0; i < n; i++ {
		r, c, err := headerPrefix(p[k:])
		if err != nil {
			return nil, fmt.Errorf("multi-matrix payload: part %d of %d: %w", i, n, err)
		}
		out = append(out, mat.NewFromSlice(r, c, p[k+2:k+2+r*c]))
		k += 2 + r*c
	}
	if k != len(p) {
		return nil, fmt.Errorf("multi-matrix payload: %d trailing floats: %w", len(p)-k, ErrMalformedPayload)
	}
	return out, nil
}

// DecodeMatrices splits a payload produced by EncodeMatrices. It must be
// called from a rank body: malformed input throws ErrMalformedPayload.
func DecodeMatrices(p []float64) []*mat.Matrix {
	ms, err := TryDecodeMatrices(p)
	if err != nil {
		Throw(err)
	}
	return ms
}

// TryDecodeMatrixInto copies an EncodeMatrix payload into dst, which must
// already have the encoded shape. Unlike TryDecodeMatrix it allocates
// nothing, so the caller may Release the payload afterwards.
func TryDecodeMatrixInto(dst *mat.Matrix, p []float64) error {
	r, c, err := MatrixHeader(p)
	if err != nil {
		return err
	}
	if dst.Rows != r || dst.Cols != c {
		return fmt.Errorf("decode into %dx%d matrix from %dx%d payload: %w",
			dst.Rows, dst.Cols, r, c, ErrMalformedPayload)
	}
	k := 2
	for i := 0; i < r; i++ {
		copy(dst.Data[i*dst.Stride:i*dst.Stride+c], p[k:k+c])
		k += c
	}
	return nil
}

// DecodeMatrixInto is the rank-body counterpart of TryDecodeMatrixInto:
// malformed input throws ErrMalformedPayload.
func DecodeMatrixInto(dst *mat.Matrix, p []float64) {
	if err := TryDecodeMatrixInto(dst, p); err != nil {
		Throw(err)
	}
}

// EncodeMatrixInto flattens m into the rank's persistent scratch buffer and
// returns it. The scratch is overwritten by the next *Into call on the same
// Comm; Send copies payloads, so handing the scratch straight to Send is
// safe.
func (c *Comm) EncodeMatrixInto(m *mat.Matrix) []float64 {
	n := 2 + m.Rows*m.Cols
	if cap(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	out := c.scratch[:n]
	out[0], out[1] = float64(m.Rows), float64(m.Cols)
	k := 2
	for i := 0; i < m.Rows; i++ {
		copy(out[k:k+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
		k += m.Cols
	}
	return out
}

// BcastMatrixInto broadcasts root's matrix into every rank's preallocated
// m (all ranks pass a matrix of the broadcast shape; root's holds the
// data). It follows Bcast's binomial tree with EncodeMatrix's wire format
// but allocates nothing in steady state: root encodes into its persistent
// scratch and receivers decode in place and release the payload.
func (c *Comm) BcastMatrixInto(root int, m *mat.Matrix) {
	p := c.Size()
	if root < 0 || root >= p {
		c.throwf(ErrInvalidRank, "comm: BcastMatrixInto root %d (P=%d)", root, p)
	}
	rel := (c.Rank() - root + p) % p
	var payload []float64
	if rel == 0 {
		payload = c.EncodeMatrixInto(m)
	}
	received := false
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			payload = c.Recv(src, tagBcast)
			received = true
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			c.Send((rel+mask+root)%p, tagBcast, payload)
		}
		mask >>= 1
	}
	if received {
		DecodeMatrixInto(m, payload)
		c.Release(payload)
	}
}
