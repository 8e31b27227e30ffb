package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
	"blocktri/internal/prefix"
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
		sched := []prefix.Schedule{prefix.KoggeStone, prefix.Chain}[rng.Intn(2)]
		a := blocktri.RandomDiagDominant(n, m, rng)
		orig := NewARD(a, Config{World: comm.NewWorld(p), Schedule: sched})
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

func TestSaveLoadPreservesSchedule(t *testing.T) {
	// A chain-factored ARD has no Kogge-Stone round snapshots; loading it
	// into a default (Kogge-Stone) config must still replay the chain
	// schedule, or the H prefixes would silently be dropped.
	rng := rand.New(rand.NewSource(405))
	a := blocktri.Oscillatory(16, 3, rng)
	b := a.RandomRHS(2, rng)
	orig := NewARD(a, Config{World: comm.NewWorld(4), Schedule: prefix.Chain})
	want, err := orig.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.SaveFactor(&buf); err != nil {
		t.Fatal(err)
	}
	// Deliberately load with the default schedule in the config.
	loaded, err := LoadFactor(a, Config{World: comm.NewWorld(4)}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("loaded chain factorization replayed with the wrong schedule")
	}
}

// savedTampered factors a on a p-rank world with the given schedule,
// applies tamper to the factor state, and returns what SaveFactor writes.
func savedTampered(t *testing.T, a *blocktri.Matrix, p int, sched prefix.Schedule, tamper func(*ARD)) []byte {
	t.Helper()
	s := NewARD(a, Config{World: comm.NewWorld(p), Schedule: sched})
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
// not fit (N, M, P) and the schedule. Each must come back as an error, not
// a panic in the caller's goroutine, one case per check.
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

	// The repro: the first element's T header rewritten from 8x8 to 1x64,
	// which keeps the section length.
	saved := savedTampered(t, a, p, prefix.KoggeStone, func(*ARD) {})
	var header []byte
	for _, v := range []uint64{uint64(2 + 4*m*m), math.Float64bits(float64(2 * m)), math.Float64bits(float64(2 * m))} {
		header = binary.LittleEndian.AppendUint64(header, v)
	}
	at := bytes.Index(saved, header)
	if at < 0 {
		t.Fatal("no 2M x 2M transfer section in the saved factor")
	}
	repro := append([]byte(nil), saved...)
	binary.LittleEndian.PutUint64(repro[at+8:], math.Float64bits(1))
	binary.LittleEndian.PutUint64(repro[at+16:], math.Float64bits(float64(4*m*m)))

	for _, tc := range []struct {
		name   string
		sched  prefix.Schedule
		tamper func(*ARD)
		want   string
	}{
		{"rank lo", prefix.KoggeStone, func(s *ARD) { s.rk[1].lo++ }, "layout"},
		{"rank hi", prefix.KoggeStone, func(s *ARD) { s.rk[0].hi-- }, "layout"},
		{"rank first", prefix.KoggeStone, func(s *ARD) { s.rk[0].first = 0 }, "layout"},
		{"element count", prefix.KoggeStone, func(s *ARD) { s.rk[0].elems = s.rk[0].elems[1:] }, "layout"},
		{"element index", prefix.KoggeStone, func(s *ARD) { s.rk[1].elems[0].idx++ }, "has index"},
		{"U order", prefix.KoggeStone, func(s *ARD) { s.rk[0].elems[0].luU = identityLU(m - 1) }, "want one of order"},
		{"local total shape", prefix.KoggeStone, func(s *ARD) { s.rk[0].localTotalS = mat.New(2*m, m) }, "section of"},
		{"local total missing", prefix.KoggeStone, func(s *ARD) { s.rk[0].localTotalS = nil }, "section of 0 words"},
		{"round snapshot shape", prefix.KoggeStone, func(s *ARD) { s.rk[1].rounds[0].accS = mat.New(m, m) }, "section of"},
		{"prefix shape", prefix.KoggeStone, func(s *ARD) { s.rk[1].piS = mat.New(2*m, 2*m-1) }, "section of"},
		{"round count", prefix.KoggeStone, func(s *ARD) { s.rk[0].rounds = append(s.rk[0].rounds, s.rk[0].rounds[0]) }, "scan rounds"},
		{"round distance", prefix.KoggeStone, func(s *ARD) { s.rk[0].rounds[0].dist = 2 }, "distance"},
		{"chain rounds", prefix.Chain, func(s *ARD) { s.rk[0].rounds = []ardRound{{dist: 1}} }, "scan rounds"},
		{"identity snapshot present", prefix.KoggeStone, func(s *ARD) { s.rk[1].rounds[0].preS = mat.New(2*m, 2*m) }, "has the identity"},
		{"identity prefix present", prefix.KoggeStone, func(s *ARD) { s.rk[0].piS = mat.New(2*m, 2*m) }, "has the identity"},
		{"reduced system order", prefix.KoggeStone, func(s *ARD) { s.luRm = identityLU(m + 1) }, "want one of order"},
		{"transfer header 8x8 to 1x64", prefix.KoggeStone, nil, "section is 1x64"},
	} {
		data := repro
		if tc.tamper != nil {
			data = savedTampered(t, a, p, tc.sched, tc.tamper)
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
	for _, c := range []struct {
		n, m, p int
		sched   prefix.Schedule
	}{
		{8, 4, 2, prefix.KoggeStone}, {13, 3, 5, prefix.KoggeStone}, {6, 2, 3, prefix.Chain}, {1, 3, 1, prefix.KoggeStone},
	} {
		a := blocktri.Oscillatory(c.n, c.m, rng)
		s := NewARD(a, Config{World: comm.NewWorld(c.p), Schedule: c.sched})
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
