package blocktri

import (
	"bufio"
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

// Read deserializes a matrix previously written with WriteTo.
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
	a := New(int(n64), int(m64))
	readBlock := func(b *mat.Matrix) error {
		for i := 0; i < b.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				v, err := readU64()
				if err != nil {
					return err
				}
				b.Set(i, j, math.Float64frombits(v))
			}
		}
		return nil
	}
	for i := 0; i < a.N; i++ {
		if i > 0 {
			if err := readBlock(a.Lower[i]); err != nil {
				return nil, err
			}
		}
		if err := readBlock(a.Diag[i]); err != nil {
			return nil, err
		}
		if i < a.N-1 {
			if err := readBlock(a.Upper[i]); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}
