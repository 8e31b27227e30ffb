package workload

import (
	"strings"
	"testing"
)

func TestBuildDeterministic(t *testing.T) {
	for _, f := range Families {
		a := Build(f, 6, 3, 42)
		b := Build(f, 6, 3, 42)
		if !a.Equal(b) {
			t.Fatalf("%s: same seed produced different matrices", f)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if a.N != 6 || a.M != 3 {
			t.Fatalf("%s: wrong shape N=%d M=%d", f, a.N, a.M)
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	// Random families must vary with the seed; the deterministic PDE
	// families (Poisson) must not.
	if Build(RandomDD, 6, 3, 1).Equal(Build(RandomDD, 6, 3, 2)) {
		t.Fatal("random-dd ignores the seed")
	}
	if !Build(Poisson, 6, 3, 1).Equal(Build(Poisson, 6, 3, 2)) {
		t.Fatal("poisson should not depend on the seed")
	}
}

func TestFamilyStrings(t *testing.T) {
	want := map[Family]string{
		RandomDD: "random-dd", Oscillatory: "oscillatory", Poisson: "poisson-2d",
		ConvDiff: "convection-diffusion", Toeplitz: "block-toeplitz",
	}
	for f, s := range want {
		if f.String() != s {
			t.Fatalf("%d: got %q want %q", int(f), f.String(), s)
		}
	}
	if Family(99).String() == "" {
		t.Fatal("unknown family should still render")
	}
}

func TestBuildUnknownFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(Family(99), 4, 2, 1)
}

func TestRHSStreamIndependent(t *testing.T) {
	a := Build(Oscillatory, 4, 2, 1)
	s := NewRHSStream(a, 3, 7)
	b1 := s.Next()
	b2 := s.Next()
	if b1.Rows != 8 || b1.Cols != 3 {
		t.Fatalf("wrong RHS shape %dx%d", b1.Rows, b1.Cols)
	}
	if b1.Equal(b2) {
		t.Fatal("stream repeated a right-hand side")
	}
	// Deterministic replay with the same seed.
	s2 := NewRHSStream(a, 3, 7)
	if !s2.Next().Equal(b1) {
		t.Fatal("stream not deterministic")
	}
}

func TestSpecLabelAndBuild(t *testing.T) {
	sp := Spec{Family: Poisson, N: 8, M: 4, P: 2, R: 3, Solves: 10, Seed: 5}
	label := sp.Label()
	for _, want := range []string{"poisson-2d", "N=8", "M=4", "P=2", "R=3", "solves=10"} {
		if !strings.Contains(label, want) {
			t.Fatalf("label %q missing %q", label, want)
		}
	}
	a := sp.Build()
	if a.N != 8 || a.M != 4 {
		t.Fatal("Spec.Build wrong shape")
	}
}
