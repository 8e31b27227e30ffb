package blocktri

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"blocktri/internal/mat"
)

// magic identifies the on-disk block tridiagonal format ("BTD1").
const magic = 0x42544431

// WriteTo serializes a in a compact little-endian binary format:
// magic, N, M as uint64, then the blocks band by band (lower, diag, upper)
// in block-row order, skipping the nil corner blocks. It returns the number
// of bytes written. Each block row is encoded into one reused buffer and
// written in a single call, so serializing (and content-hashing) a matrix
// costs a handful of allocations, not one per value.
func (a *Matrix) WriteTo(w io.Writer) (int64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 8*3*a.M*a.M) // one block row; M >= 1 fits the header too
	buf = binary.LittleEndian.AppendUint64(buf, magic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.N))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.M))
	n, err := bw.Write(buf)
	total := int64(n)
	for i := 0; i < a.N && err == nil; i++ {
		buf = buf[:0]
		for _, b := range [3]*mat.Matrix{a.Lower[i], a.Diag[i], a.Upper[i]} {
			if b == nil { // the corner blocks Lower[0] and Upper[N-1]
				continue
			}
			for r := 0; r < b.Rows; r++ {
				for _, v := range b.Data[r*b.Stride : r*b.Stride+b.Cols] {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				}
			}
		}
		n, err = bw.Write(buf)
		total += int64(n)
	}
	if err != nil {
		return total, err
	}
	return total, bw.Flush()
}

// Read deserializes a matrix previously written with WriteTo. The header
// only bounds the dimensions: Read grows the matrix block by block as the
// data arrives, so an input that promises more than it holds costs memory
// in proportion to what it holds, and ends in an error.
func Read(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	readU64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	mg, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("blocktri: reading header: %w", err)
	}
	if mg != magic {
		return nil, fmt.Errorf("blocktri: bad magic %#x", mg)
	}
	n64, err := readU64()
	if err != nil {
		return nil, err
	}
	m64, err := readU64()
	if err != nil {
		return nil, err
	}
	const maxDim = 1 << 24
	if n64 == 0 || m64 == 0 || n64 > maxDim || m64 > maxDim {
		return nil, fmt.Errorf("blocktri: implausible dimensions N=%d M=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	var raw bytes.Buffer // one block's bytes, grown as they arrive
	block := func(i int) (*mat.Matrix, error) {
		raw.Reset()
		if _, err := io.CopyN(&raw, br, int64(8*m*m)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("blocktri: block row %d: %w", i, err)
		}
		b, src := mat.New(m, m), raw.Bytes()
		for k := range b.Data {
			b.Data[k] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*k:]))
		}
		return b, nil
	}
	a := &Matrix{N: n, M: m}
	for i := 0; i < n; i++ {
		var lo, d, up *mat.Matrix
		if i > 0 {
			if lo, err = block(i); err != nil {
				return nil, err
			}
		}
		if d, err = block(i); err != nil {
			return nil, err
		}
		if i < n-1 {
			if up, err = block(i); err != nil {
				return nil, err
			}
		}
		a.Lower = append(a.Lower, lo)
		a.Diag = append(a.Diag, d)
		a.Upper = append(a.Upper, up)
	}
	return a, nil
}
