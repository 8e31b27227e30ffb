package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// ARD factorization serialization: the factor phase is the expensive part
// of the solver's lifecycle, so a long-running application can compute it
// once, persist it, and restore it in later runs (or on failover) without
// re-running the O(M^3) work. The format captures the complete per-rank
// factor state; loading requires a world of the same size P the state was
// produced with, and a matrix with the same (N, M) — the right-hand-side
// path re-reads the matrix's last block row, so the caller must supply
// the same matrix the factorization was computed for. Every element is
// written as its whole transfer matrix, [TL TR; I 0] as one 2M x 2M
// section, and the LU factors of its super-diagonal block, although the
// solver keeps [TL TR] and U^{-1} instead: SaveFactor rebuilds both
// sections from the matrix, and LoadFactor builds U^{-1} from the stored
// LU and keeps neither the LU nor T's bottom half. A factor file is
// untrusted input: LoadFactor checks every section's shape and every
// rank's layout against (N, M, P), and rejects an LU with a zero on U's
// diagonal, before it builds anything.

// ardMagic identifies the on-disk ARD factor format ("ARF1").
const ardMagic = 0x41524631

// ardKoggeStone is the header word after P. Every factor file records the
// Kogge-Stone rounds, and this value 0 names them; older files that hold
// another value describe state the solve phase cannot replay.
const ardKoggeStone = 0

// SaveFactor serializes the factor-phase state. Factor is run first if it
// has not completed. The element sections are rebuilt from the solver's
// matrix, exactly as Factor builds them. It returns the number of bytes
// written.
func (s *ARD) SaveFactor(w io.Writer) (int64, error) {
	if err := s.Factor(); err != nil {
		return 0, err
	}
	enc := newEncoder(w)
	for _, v := range []uint64{ardMagic, uint64(s.a.N), uint64(s.a.M), uint64(s.world.P), ardKoggeStone} {
		enc.u64(v)
	}
	enc.f64(s.growth)
	enc.matrixOpt(nil) // reserved slot (layout versioning headroom)
	if s.luRm != nil {
		enc.floats(s.luRm.Encode())
	} else {
		enc.u64(0)
	}
	if s.a.N == 1 {
		return enc.finish()
	}
	m := s.a.M
	ws, t := mat.NewWorkspace(), mat.New(2*m, 2*m)
	for r, st := range s.rk {
		for _, v := range []int{st.lo, st.hi, st.first, len(st.elems)} {
			enc.u64(uint64(v))
		}
		lo, _ := PartRange(s.a.N, s.world.P, r)
		for k, e := range st.elems {
			// Factor built the rank's element k as element first+k, and
			// checked that its U is nonsingular.
			i := max(lo, 1) + k
			ws.Reset()
			be, err := buildElement(ws, s.a, i)
			if err != nil {
				return enc.n, err
			}
			lu, _ := ws.LU(s.a.Upper[i-1])
			composeT(ws, t, be.t.a, mat.PackedA{}, nil, nil)
			enc.u64(uint64(e.idx))
			enc.matrix(t)
			enc.floats(lu.Encode())
		}
		enc.matrixOpt(st.localTotalS)
		enc.u64(uint64(len(st.rounds)))
		for _, rd := range st.rounds {
			enc.u64(uint64(rd.dist))
			enc.matrixOpt(rd.preS)
			enc.matrixOpt(rd.accS)
		}
		enc.matrixOpt(st.piS)
	}
	return enc.finish()
}

// LoadFactor restores factor-phase state previously written by SaveFactor
// into a fresh solver for matrix a over cfg's world. The world size and
// the matrix shape must match the saved state.
func LoadFactor(a *blocktri.Matrix, cfg Config, r io.Reader) (*ARD, error) {
	s := NewARD(a, cfg)
	dec := newDecoder(r)
	magic, n, m, p := dec.u64(), dec.u64(), dec.u64(), dec.u64()
	switch {
	case dec.err != nil:
		return nil, fmt.Errorf("core: reading factor header: %w", dec.err)
	case magic != ardMagic:
		return nil, fmt.Errorf("core: bad factor magic %#x", magic)
	case int(n) != a.N || int(m) != a.M:
		return nil, fmt.Errorf("core: saved factor is for N=%d M=%d, matrix is N=%d M=%d", n, m, a.N, a.M)
	case int(p) != s.world.P:
		return nil, fmt.Errorf("core: saved factor used P=%d, world has P=%d", p, s.world.P)
	}
	// No legitimate section is longer than a 2M x 2M transfer matrix.
	dec.maxSection = 2 + 4*a.M*a.M
	if rounds := dec.u64(); rounds != ardKoggeStone {
		dec.fail("core: saved factor has scan-round code %d, want %d", rounds, ardKoggeStone)
	}
	s.growth = dec.f64()
	dec.floats() // reserved slot
	s.luRm = dec.lu(a.M)
	for rank := 0; a.N > 1 && rank < s.world.P && dec.err == nil; rank++ {
		s.rk = append(s.rk, loadRank(dec, a, s.world.P, rank))
	}
	if dec.err != nil {
		return nil, dec.err
	}
	s.factored = true
	if a.N > 1 {
		// Packs are rebuilt exactly as Factor builds them, so a restored
		// solver runs the same packed products and gives the same bits.
		s.buildPacks()
		s.factorStats = SolveStats{PrefixGrowth: s.growth, StoredBytes: s.storedBytes()}
	}
	return s, nil
}

// loadRank decodes one rank's factor state and checks it against the
// layout Factor produces for (N, M, P): the block range, the element
// count and indices, every section's shape, the Kogge-Stone round
// distances, and which scan matrices are the identity. Each element is
// kept as Factor keeps it, from its transfer matrix's top half and U^{-1}
// solved from the stored LU; the substitution's per-column arithmetic
// does not depend on the width, so U^{-1} has Factor's bits.
func loadRank(dec *decoder, a *blocktri.Matrix, p, rank int) *ardRankState {
	m := a.M
	lo, hi := PartRange(a.N, p, rank)
	first, ne := max(lo, 1), max(hi-max(lo, 1), 0)
	st := &ardRankState{lo: dec.intVal(), hi: dec.intVal(), first: dec.intVal()}
	if got := dec.intVal(); st.lo != lo || st.hi != hi || st.first != first || got != ne {
		dec.fail("core: layout lo=%d hi=%d first=%d with %d elements, want lo=%d hi=%d first=%d with %d",
			st.lo, st.hi, st.first, got, lo, hi, first, ne)
	}
	store, uInv := newElementStore(m, ne), mat.New(m, m)
	for k := 0; k < ne && dec.err == nil; k++ {
		idx := dec.intVal()
		if idx != first+k {
			dec.fail("core: element %d has index %d", first+k, idx)
		}
		t, lu := dec.sMatrix(m, true), dec.lu(m)
		if dec.err != nil {
			break
		}
		uInv.SetIdentity()
		lu.SolveInPlace(uInv)
		e := element{idx: idx, t: operand{a: t.View(0, 0, m, 2*m)}, u: operand{a: uInv}}
		st.elems = append(st.elems, e.keep(store))
	}
	// Factor's round snapshots repeat the local total and earlier entries
	// by pointer; a restored rank shares bit-identical sections the same
	// way, so it stores and packs each matrix once, as Factor does.
	var kept []*mat.Matrix
	scan := func(present bool) *mat.Matrix {
		x := dec.sMatrix(m, present)
		if x == nil {
			return nil
		}
		for _, k := range kept {
			if sameBits(k, x) {
				return k
			}
		}
		kept = append(kept, x)
		return x
	}
	st.localTotalS = scan(ne > 0)
	// Replay Factor's scan on presence flags alone: which snapshots hold a
	// matrix and which the identity depends only on which ranks own
	// elements, and the solve phase's combines rely on exactly that. An
	// aggregate stays the identity until its rank owns elements or
	// receives a matrix; a prefix until it receives one.
	acc, pre := make([]bool, p), make([]bool, p)
	for q := range acc {
		l, h := PartRange(a.N, p, q)
		acc[q] = h > max(l, 1)
	}
	var want [][2]bool
	for dist := 1; dist < p; dist <<= 1 {
		want = append(want, [2]bool{pre[rank], acc[rank]})
		for q := p - 1; q >= dist; q-- {
			pre[q], acc[q] = pre[q] || acc[q-dist], acc[q] || acc[q-dist]
		}
	}
	if nr := dec.intVal(); nr != len(want) {
		dec.fail("core: %d scan rounds, want %d", nr, len(want))
	}
	for k, w := range want {
		if dist := dec.intVal(); dist != 1<<k {
			dec.fail("core: scan round distance %d, want %d", dist, 1<<k)
		}
		st.rounds = append(st.rounds, ardRound{dist: 1 << k, preS: scan(w[0]), accS: scan(w[1])})
	}
	st.piS = scan(pre[rank])
	if dec.err != nil {
		dec.err = fmt.Errorf("core: factor rank %d: %w", rank, dec.err)
	}
	return st
}

// sameBits reports whether two contiguous matrices of one shape hold the
// same bits, signed zeros and NaN payloads included.
func sameBits(a, b *mat.Matrix) bool {
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// encoder writes length-prefixed float64 sections in little-endian form.
type encoder struct {
	bw  *bufio.Writer
	buf [8]byte
	n   int64
	err error
}

func newEncoder(w io.Writer) *encoder { return &encoder{bw: bufio.NewWriter(w)} }

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:], v)
	k, err := e.bw.Write(e.buf[:])
	e.n += int64(k)
	e.err = err
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) floats(fs []float64) {
	e.u64(uint64(len(fs)))
	for _, f := range fs {
		e.f64(f)
	}
}

func (e *encoder) matrix(m *mat.Matrix) { e.floats(comm.EncodeMatrix(m)) }

func (e *encoder) matrixOpt(m *mat.Matrix) {
	if m == nil {
		e.u64(0)
		return
	}
	e.matrix(m)
}

func (e *encoder) finish() (int64, error) {
	if e.err != nil {
		return e.n, e.err
	}
	return e.n, e.bw.Flush()
}

// decoder reads the sections back. Its first error sticks: every later
// read returns zero values, so callers check err once per stage rather
// than after every read. maxSection caps a section's length in words.
type decoder struct {
	br         *bufio.Reader
	buf        [8]byte
	maxSection int
	err        error
}

func newDecoder(r io.Reader) *decoder {
	// Until LoadFactor knows M, sections are capped at 128 MiB of float64
	// words, so a flipped length byte cannot drive a huge allocation.
	return &decoder{br: bufio.NewReader(r), maxSection: 1 << 24}
}

// fail records a decoding error unless an earlier one already stuck.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if _, d.err = io.ReadFull(d.br, d.buf[:]); d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:])
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) intVal() int {
	const maxPlausible = 1 << 40
	v := d.u64()
	if v > maxPlausible {
		d.fail("core: implausible integer %d in factor file", v)
		return 0
	}
	return int(v)
}

func (d *decoder) floats() []float64 {
	n := d.intVal()
	if n > d.maxSection {
		d.fail("core: implausible section length %d", n)
	}
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// sMatrix reads a scan-matrix section (a transfer matrix, a local total,
// a round snapshot or a prefix) that the layout says holds a 2M x 2M
// matrix (present) or the identity, written empty and read as nil.
func (d *decoder) sMatrix(m int, present bool) *mat.Matrix {
	fs := d.floats()
	switch {
	case d.err != nil || (!present && len(fs) == 0):
		return nil
	case !present:
		d.fail("core: %d-word section where the layout has the identity", len(fs))
		return nil
	case len(fs) != 2+4*m*m:
		d.fail("core: section of %d words, want a %dx%d matrix", len(fs), 2*m, 2*m)
		return nil
	//lint:ignore floateq the header words of a genuine section are exact small integers
	case fs[0] != float64(2*m) || fs[1] != float64(2*m):
		d.fail("core: section is %vx%v, want %dx%d", fs[0], fs[1], 2*m, 2*m)
		return nil
	}
	return mat.NewFromSlice(2*m, 2*m, fs[2:])
}

// lu reads an LU section that must factor an m x m matrix. The pivots are
// checked first: mat.DecodeLU trusts them. A zero on U's diagonal is
// rejected: Factor never stores one, and solving through it fills the
// answer with NaN.
func (d *decoder) lu(m int) *mat.LU {
	fs := d.floats()
	switch {
	case d.err != nil:
		return nil
	//lint:ignore floateq the order word of a genuine section is an exact small integer
	case len(fs) != mat.EncodedLULen(m) || fs[0] != float64(m):
		d.fail("core: LU section of %d words, want one of order %d", len(fs), m)
		return nil
	}
	for _, p := range fs[2 : 2+m] {
		//lint:ignore floateq integrality check on an untrusted pivot index; Trunc equality is the exact property validated.
		if p != math.Trunc(p) || p < 0 || p >= float64(m) {
			d.fail("core: LU pivot %v out of range", p)
			return nil
		}
	}
	for i := 0; i < m; i++ {
		if fs[2+m+i*m+i] == 0 {
			d.fail("core: LU section has a zero on U's diagonal at %d", i)
			return nil
		}
	}
	lu, _ := mat.DecodeLU(fs)
	return lu
}
