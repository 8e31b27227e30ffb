package comm

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"blocktri/internal/mat"
)

func TestEncodeDecodeMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mat.Random(3, 5, rng)
	got := DecodeMatrix(EncodeMatrix(m))
	if !got.Equal(m) {
		t.Fatal("round trip mismatch")
	}
}

func TestEncodeMatrixFromView(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	big := mat.Random(6, 6, rng)
	v := big.View(1, 2, 3, 3)
	got := DecodeMatrix(EncodeMatrix(v))
	if !got.Equal(v.Clone()) {
		t.Fatal("view encode mismatch")
	}
}

func TestDecodeMatrixRejectsMalformed(t *testing.T) {
	cases := [][]float64{
		{2, 2, 1, 2, 3}, // says 2x2 but only 3 values
		{2},             // no header
		{-1, -4, 1, 2, 3, 4},
		nil,
		{1 << 32, 1 << 32}, // 2^64 values wrap to 0
		{2.5, 1, 7, 8},     // fractional rows
		{math.NaN(), 0},
		{3e9, 0}, // empty, but with more rows than its payload has words
	}
	for _, p := range cases {
		if _, err := TryDecodeMatrix(p); !errors.Is(err, ErrMalformedPayload) {
			t.Fatalf("TryDecodeMatrix(%v) err = %v, want ErrMalformedPayload", p, err)
		}
	}
}

func TestEncodeDecodeMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, c := mat.Random(2, 2, rng), mat.Random(1, 4, rng), mat.Random(3, 1, rng)
	out := DecodeMatrices(EncodeMatrices(a, b, c))
	if len(out) != 3 || !out[0].Equal(a) || !out[1].Equal(b) || !out[2].Equal(c) {
		t.Fatal("multi-matrix round trip mismatch")
	}
}

func TestDecodeMatricesRejectsTrailing(t *testing.T) {
	p := EncodeMatrices(mat.Identity(2))
	p = append(p, 99)
	if _, err := TryDecodeMatrices(p); !errors.Is(err, ErrMalformedPayload) {
		t.Fatalf("err = %v, want ErrMalformedPayload", err)
	}
	if _, err := TryDecodeMatrices([]float64{3, 2, 2, 1}); !errors.Is(err, ErrMalformedPayload) {
		t.Fatalf("truncated bundle err = %v, want ErrMalformedPayload", err)
	}
}

// Property: encode/decode of random bundles round-trips exactly.
func TestEncodeMatricesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		ms := make([]*mat.Matrix, n)
		for i := range ms {
			ms[i] = mat.Random(1+r.Intn(6), 1+r.Intn(6), r)
		}
		out := DecodeMatrices(EncodeMatrices(ms...))
		if len(out) != n {
			return false
		}
		for i := range ms {
			if !out[i].Equal(ms[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTryDecodeMatrices feeds arbitrary payloads, eight bytes to a float,
// to the multi-matrix decoder. It must reject or decode every input, never
// panic, and whatever it decodes must re-encode to the same payload: header
// words equal as numbers, values bit for bit.
func FuzzTryDecodeMatrices(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range [][]float64{
		EncodeMatrices(mat.Random(2, 3, rng), mat.Random(1, 1, rng), mat.Random(3, 2, rng)),
		EncodeMatrices(mat.Random(4, 4, rng)),
		EncodeMatrices(),
		{1e18},                // a part count no payload can hold
		{1, 1 << 32, 1 << 32}, // a part of 2^64 values, wrapping to 0
		{1, 2.5, 1, 7, 8},     // a fractional dimension
	} {
		data := make([]byte, 0, 8*len(p))
		for _, v := range p {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := make([]float64, len(data)/8)
		for i := range p {
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		ms, err := TryDecodeMatrices(p)
		if err != nil {
			if !errors.Is(err, ErrMalformedPayload) {
				t.Fatalf("error %v does not wrap ErrMalformedPayload", err)
			}
			return
		}
		q := EncodeMatrices(ms...)
		if len(q) != len(p) || q[0] != p[0] {
			t.Fatalf("%d parts re-encode to %d floats, count %v; payload has %d, count %v", len(ms), len(q), q[0], len(p), p[0])
		}
		k := 1
		for i, m := range ms {
			if q[k] != p[k] || q[k+1] != p[k+1] {
				t.Fatalf("part %d: header %vx%v re-encodes as %vx%v", i, p[k], p[k+1], q[k], q[k+1])
			}
			for j := k + 2; j < k+2+m.Rows*m.Cols; j++ {
				if math.Float64bits(q[j]) != math.Float64bits(p[j]) {
					t.Fatalf("part %d: word %d changed from %v to %v", i, j, p[j], q[j])
				}
			}
			k += 2 + m.Rows*m.Cols
		}
	})
}
