package comm

import (
	"errors"
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
