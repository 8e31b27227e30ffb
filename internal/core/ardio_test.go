package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

func TestARDFactorSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, tc := range []struct{ n, m, r, p int }{
		{1, 3, 2, 1}, {8, 2, 1, 2}, {16, 4, 3, 4}, {13, 3, 2, 5},
	} {
		a := blocktri.Oscillatory(tc.n, tc.m, rng)
		b := a.RandomRHS(tc.r, rng)
		orig := NewARD(a, Config{World: comm.NewWorld(tc.p)})
		want, err := orig.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := orig.SaveFactor(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFactor(a, Config{World: comm.NewWorld(tc.p)}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.Factored() {
			t.Fatal("loaded solver not marked factored")
		}
		got, err := loaded.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("N=%d M=%d P=%d: loaded factor gives different solution", tc.n, tc.m, tc.p)
		}
		if loaded.FactorStats().PrefixGrowth != orig.FactorStats().PrefixGrowth {
			t.Fatal("growth diagnostic not preserved")
		}
	}
}

// TestLoadFactorMatchesFreshFactor loads factor files at block sizes
// that reach every element layout and requires the loaded solver to keep
// each element as Factor does and to solve bit for bit as a fresh Factor.
// SaveFactor's bytes are pinned (TestSaveFactorBytesStable), so this also
// covers files written when elements kept T's top half and U's LU.
func TestLoadFactorMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	for _, m := range []int{3, 5, 16} {
		a := blocktri.RandomDiagDominant(10, m, rng)
		fresh := NewARD(a, Config{World: comm.NewWorld(3)})
		var buf bytes.Buffer
		if _, err := fresh.SaveFactor(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFactor(a, Config{World: comm.NewWorld(3)}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for r, st := range fresh.rk {
			for k, e := range st.elems {
				l := loaded.rk[r].elems[k]
				if (l.t.a != nil) != (e.t.a != nil) || l.t.p.Valid() != e.t.p.Valid() ||
					(l.u.a != nil) != (e.u.a != nil) || l.u.p.Valid() != e.u.p.Valid() {
					t.Fatalf("M=%d rank %d element %d: loaded layout differs from Factor's", m, r, k)
				}
			}
		}
		if loaded.FactorStats().StoredBytes != fresh.FactorStats().StoredBytes {
			t.Errorf("M=%d: loaded solver stores %d bytes, fresh %d", m,
				loaded.FactorStats().StoredBytes, fresh.FactorStats().StoredBytes)
		}
		for _, r := range []int{1, 9} {
			b := a.RandomRHS(r, rng)
			want, err := fresh.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("M=%d R=%d: loaded factor solves differently from a fresh Factor", m, r)
			}
		}
	}
}

func TestSaveFactorRunsFactorFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	a := blocktri.Oscillatory(8, 2, rng)
	ard := NewARD(a, Config{World: comm.NewWorld(2)})
	var buf bytes.Buffer
	n, err := ard.SaveFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("byte count %d vs buffer %d", n, buf.Len())
	}
	if !ard.Factored() {
		t.Fatal("SaveFactor should have factored")
	}
}

func TestLoadFactorRejectsMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	a := blocktri.Oscillatory(8, 2, rng)
	ard := NewARD(a, Config{World: comm.NewWorld(2)})
	var buf bytes.Buffer
	if _, err := ard.SaveFactor(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// Wrong world size.
	if _, err := LoadFactor(a, Config{World: comm.NewWorld(3)}, bytes.NewReader(saved)); err == nil {
		t.Fatal("wrong P accepted")
	}
	// Wrong matrix shape.
	other := blocktri.Oscillatory(9, 2, rng)
	if _, err := LoadFactor(other, Config{World: comm.NewWorld(2)}, bytes.NewReader(saved)); err == nil {
		t.Fatal("wrong N accepted")
	}
	// Corrupt magic.
	bad := append([]byte(nil), saved...)
	bad[0] ^= 0xff
	if _, err := LoadFactor(a, Config{World: comm.NewWorld(2)}, bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncated payload.
	if _, err := LoadFactor(a, Config{World: comm.NewWorld(2)}, bytes.NewReader(saved[:len(saved)/2])); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// Property: save/load round-trips the factorization bit-exactly for
// arbitrary configurations, verified by solving with fresh right-hand
// sides through both solvers.
func TestARDFactorSaveLoadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		m := 1 + rng.Intn(4)
		p := 1 + rng.Intn(5)
		a := blocktri.RandomDiagDominant(n, m, rng)
		orig := NewARD(a, Config{World: comm.NewWorld(p)})
		if err := orig.Factor(); err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := orig.SaveFactor(&buf); err != nil {
			return false
		}
		loaded, err := LoadFactor(a, Config{World: comm.NewWorld(p)}, &buf)
		if err != nil {
			return false
		}
		b := a.RandomRHS(1+rng.Intn(3), rng)
		x1, err1 := orig.Solve(b)
		x2, err2 := loaded.Solve(b)
		return err1 == nil && err2 == nil && x1.Equal(x2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFactorSurvivesCorruption flips bytes at many positions in a
// valid factor file and requires LoadFactor to return an error or a
// loadable state — never panic. (Bit flips in the numeric payload are
// undetectable by design; structural corruption must be caught.)
func TestLoadFactorSurvivesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	a := blocktri.Oscillatory(12, 3, rng)
	ard := NewARD(a, Config{World: comm.NewWorld(3)})
	var buf bytes.Buffer
	if _, err := ard.SaveFactor(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	for trial := 0; trial < 300; trial++ {
		bad := append([]byte(nil), saved...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("corruption at byte %d panicked: %v", pos, p)
				}
			}()
			_, _ = LoadFactor(a, Config{World: comm.NewWorld(3)}, bytes.NewReader(bad))
		}()
	}
	// Truncations at every length must also be panic-free.
	for cut := 0; cut < len(saved); cut += 97 {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("truncation at %d panicked: %v", cut, p)
				}
			}()
			if _, err := LoadFactor(a, Config{World: comm.NewWorld(3)}, bytes.NewReader(saved[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}()
	}
}

// savedTampered factors a on a p-rank world, applies tamper to the factor
// state, and returns what SaveFactor writes.
func savedTampered(t *testing.T, a *blocktri.Matrix, p int, tamper func(*ARD)) []byte {
	t.Helper()
	s := NewARD(a, Config{World: comm.NewWorld(p)})
	if err := s.Factor(); err != nil {
		t.Fatal(err)
	}
	tamper(s)
	var buf bytes.Buffer
	if _, err := s.SaveFactor(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadFactorRejectsMisshapenSections covers the corruption random byte
// flips never produce: sections that are well formed on their own but do
// not fit (N, M, P). Each must come back as an error, not a panic in the
// caller's goroutine, one case per check.
func TestLoadFactorRejectsMisshapenSections(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	a := blocktri.Oscillatory(8, 4, rng)
	const p = 2
	m := a.M
	identityLU := func(n int) *mat.LU {
		lu, err := mat.Factor(mat.Identity(n))
		if err != nil {
			t.Fatal(err)
		}
		return lu
	}

	// Byte edits reach what no in-memory tamper can: SaveFactor rebuilds
	// every element section from the matrix. sections finds each section
	// whose length word and first word are those given; a section's word w
	// sits 8*(1+w) bytes past its offset.
	saved := savedTampered(t, a, p, func(*ARD) {})
	sections := func(words int, first float64) []int {
		var pat []byte
		for _, v := range []uint64{uint64(words), math.Float64bits(first)} {
			pat = binary.LittleEndian.AppendUint64(pat, v)
		}
		var at []int
		for off := 0; ; {
			k := bytes.Index(saved[off:], pat)
			if k < 0 {
				return at
			}
			at = append(at, off+k)
			off += k + len(pat)
		}
	}
	transfer, lus := sections(2+4*m*m, float64(2*m)), sections(mat.EncodedLULen(m), float64(m))
	if len(transfer) == 0 || len(lus) < 2 {
		t.Fatalf("found %d transfer and %d LU sections in the saved factor", len(transfer), len(lus))
	}
	edit := func(at int, words map[int]float64) []byte {
		data := append([]byte(nil), saved...)
		for w, v := range words {
			binary.LittleEndian.PutUint64(data[at+8*(1+w):], math.Float64bits(v))
		}
		return data
	}
	// The reduced system's LU comes first, then the first element's.
	reducedLU, elemLU := lus[0], lus[1]
	diag := func(i int) int { return 2 + m + i*m + i } // U[i][i]'s word in an LU section
	// The header's fifth word, after the magic and N, M, P, names the
	// Kogge-Stone rounds with 0; no other value is a file LoadFactor reads.
	scanWord := append([]byte(nil), saved...)
	binary.LittleEndian.PutUint64(scanWord[32:], 2)

	for _, tc := range []struct {
		name   string
		tamper func(*ARD)
		data   []byte // a byte-edited file, used when tamper is nil
		want   string
	}{
		{"rank lo", func(s *ARD) { s.rk[1].lo++ }, nil, "layout"},
		{"rank hi", func(s *ARD) { s.rk[0].hi-- }, nil, "layout"},
		{"rank first", func(s *ARD) { s.rk[0].first = 0 }, nil, "layout"},
		{"element count", func(s *ARD) { s.rk[0].elems = s.rk[0].elems[1:] }, nil, "layout"},
		{"element index", func(s *ARD) { s.rk[1].elems[0].idx++ }, nil, "has index"},
		{"U order", nil, edit(elemLU, map[int]float64{0: float64(m - 1)}), "want one of order"},
		{"U singular", nil, edit(elemLU, map[int]float64{diag(0): 0}), "zero on U's diagonal"},
		{"local total shape", func(s *ARD) { s.rk[0].localTotalS = mat.New(2*m, m) }, nil, "section of"},
		{"local total missing", func(s *ARD) { s.rk[0].localTotalS = nil }, nil, "section of 0 words"},
		{"round snapshot shape", func(s *ARD) { s.rk[1].rounds[0].accS = mat.New(m, m) }, nil, "section of"},
		{"prefix shape", func(s *ARD) { s.rk[1].piS = mat.New(2*m, 2*m-1) }, nil, "section of"},
		{"round count", func(s *ARD) { s.rk[0].rounds = append(s.rk[0].rounds, s.rk[0].rounds[0]) }, nil, "scan rounds"},
		{"round distance", func(s *ARD) { s.rk[0].rounds[0].dist = 2 }, nil, "distance"},
		{"identity snapshot present", func(s *ARD) { s.rk[1].rounds[0].preS = mat.New(2*m, 2*m) }, nil, "has the identity"},
		{"identity prefix present", func(s *ARD) { s.rk[0].piS = mat.New(2*m, 2*m) }, nil, "has the identity"},
		{"scan-round code 2", nil, scanWord, "scan-round code 2"},
		{"reduced system order", func(s *ARD) { s.luRm = identityLU(m + 1) }, nil, "want one of order"},
		{"reduced system singular", nil, edit(reducedLU, map[int]float64{diag(m - 1): 0}), "zero on U's diagonal"},
		// The first element's T header rewritten from 8x8 to 1x64, which
		// keeps the section length.
		{"transfer header 8x8 to 1x64", nil, edit(transfer[0], map[int]float64{0: 1, 1: float64(4 * m * m)}), "section is 1x64"},
	} {
		data := tc.data
		if tc.tamper != nil {
			data = savedTampered(t, a, p, tc.tamper)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: LoadFactor panicked: %v", tc.name, r)
				}
			}()
			_, err := LoadFactor(a, Config{World: comm.NewWorld(p)}, bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got error %v, want one mentioning %q", tc.name, err, tc.want)
			}
		}()
	}
}

// TestSaveFactorBytesStable pins SaveFactor's output: the file holds each
// element's whole transfer matrix and U's LU factors, rebuilt from the
// matrix, so a change to what an element keeps must not change a byte of
// it. The hashes are one per kernel path (the FMA and portable kernels
// round differently). The M=5 pair was taken when elements still kept T's
// top half and U's LU; the M=16 pair was taken before Kogge-Stone became
// the only cross-rank scan, so both pin the bytes of the earlier format.
// M=5 keeps [TL TR] as a pack on the FMA kernels and U^{-1} unpacked;
// M=16 keeps both as packs.
func TestSaveFactorBytesStable(t *testing.T) {
	for _, tc := range []struct {
		n, m, p       int
		fma, portable string
	}{
		{12, 5, 3,
			"fa595f52d4c167901ae1aef02274c57093270114b52b5cf37b4bfb73ca8ad440",
			"d498a1d6aba8d98a0526c2ed81d1de2cb6296afd932d5404b082f0c0cd179f15"},
		{9, 16, 2,
			"4640978aed60cc4aecbbccced63030df076790f7e6cd4120665f2f51040f054b",
			"969ed15c93560249554f32e3474f5cc53f3596e3861693f6eb59d848219e4857"},
	} {
		a := blocktri.RandomDiagDominant(tc.n, tc.m, rand.New(rand.NewSource(int64(tc.m))))
		s := NewARD(a, Config{World: comm.NewWorld(tc.p)})
		h := sha256.New()
		if _, err := s.SaveFactor(h); err != nil {
			t.Fatal(err)
		}
		want := tc.portable
		if mat.FMAKernels() {
			want = tc.fma
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("N=%d M=%d P=%d: SaveFactor hash %s, want %s", tc.n, tc.m, tc.p, got, want)
		}
	}
}

// FuzzLoadFactor feeds LoadFactor arbitrary bytes for a few fixed systems,
// seeded with genuine factor files. It must return an error or a solver,
// never panic, and a solver it returns must solve without error: the
// numbers in a file are not checkable, so the answer may be wrong, but
// the structure the solve phase walks must be sound.
func FuzzLoadFactor(f *testing.F) {
	type system struct {
		a *blocktri.Matrix
		p int
		b *mat.Matrix
	}
	rng := rand.New(rand.NewSource(407))
	var systems []system
	for _, c := range []struct{ n, m, p int }{
		{8, 4, 2}, {13, 3, 5}, {6, 2, 3}, {1, 3, 1},
		// Block sizes whose element operands are both kept as standalone
		// packs on the FMA kernels, which the seeds above never reach.
		{6, 8, 3}, {5, 16, 2},
	} {
		a := blocktri.Oscillatory(c.n, c.m, rng)
		s := NewARD(a, Config{World: comm.NewWorld(c.p)})
		var buf bytes.Buffer
		if _, err := s.SaveFactor(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(len(systems)), buf.Bytes())
		systems = append(systems, system{a, c.p, a.RandomRHS(1, rng)})
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		sys := systems[int(k)%len(systems)]
		// Close each world: the fuzz worker runs thousands of inputs in one
		// process, and unreaped rank workers would pile up.
		w := comm.NewWorld(sys.p)
		defer w.Close()
		s, err := LoadFactor(sys.a, Config{World: w}, bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := s.Solve(sys.b); err != nil {
			t.Fatalf("loaded factor does not solve: %v", err)
		}
	})
}
