package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blocktri/internal/mat"
)

func randAffine(rng *rand.Rand, m, r int) Affine {
	return Affine{S: mat.Random(2*m, 2*m, rng), H: mat.Random(2*m, r, rng)}
}

func affineApprox(a, b Affine, tol float64) bool {
	if a.IsIdentity() || b.IsIdentity() {
		return a.IsIdentity() == b.IsIdentity()
	}
	return a.S.EqualApprox(b.S, tol) && a.H.EqualApprox(b.H, tol)
}

// The scan semigroup's laws: associativity and two-sided identity. These
// are what let recursive doubling regroup the combines of a sequential
// scan and still compute its prefixes.
func TestComposeAffineAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, r := 1+rng.Intn(4), 1+rng.Intn(3)
		a, b, c := randAffine(rng, m, r), randAffine(rng, m, r), randAffine(rng, m, r)
		left := ComposeAffine(ComposeAffine(a, b), c)
		right := ComposeAffine(a, ComposeAffine(b, c))
		return affineApprox(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComposeAffineIdentityLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randAffine(rng, 3, 2)
	id := Affine{}
	if !affineApprox(ComposeAffine(id, a), a, 0) {
		t.Fatal("left identity violated")
	}
	if !affineApprox(ComposeAffine(a, id), a, 0) {
		t.Fatal("right identity violated")
	}
	if !ComposeAffine(id, id).IsIdentity() {
		t.Fatal("id ∘ id must be id")
	}
}

// ComposeAffine must agree with applying the maps pointwise: for any y,
// (b∘a)(y) == b(a(y)).
func TestComposeAffineMatchesApplicationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, r := 1+rng.Intn(4), 1+rng.Intn(2)
		a, b := randAffine(rng, m, r), randAffine(rng, m, r)
		y := mat.Random(2*m, r, rng)
		apply := func(af Affine, v *mat.Matrix) *mat.Matrix {
			out := mat.New(2*m, r)
			mat.Mul(out, af.S, v)
			mat.Add(out, out, af.H)
			return out
		}
		composed := ComposeAffine(a, b)
		direct := apply(b, apply(a, y))
		viaCompose := apply(composed, y)
		return direct.EqualApprox(viaCompose, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// encode/decode of affine payloads round-trips, including the identity.
func TestAffineCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randAffine(rng, 2, 3)
	got := decodeAffine(encodeAffine(a))
	if !got.S.Equal(a.S) || !got.H.Equal(a.H) {
		t.Fatal("affine codec round trip failed")
	}
	if !decodeAffine(encodeAffine(Affine{})).IsIdentity() {
		t.Fatal("identity codec round trip failed")
	}
	if decodeSMat(encodeSMat(nil)) != nil {
		t.Fatal("nil S codec round trip failed")
	}
	s := mat.Random(4, 4, rng)
	if !decodeSMat(encodeSMat(s)).Equal(s) {
		t.Fatal("S codec round trip failed")
	}
}
