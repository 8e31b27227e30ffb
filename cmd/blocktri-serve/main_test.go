package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
	"blocktri/internal/serve"
)

// toWire converts a matrix into its JSON wire form.
func toWire(a *blocktri.Matrix) *matrixJSON {
	mj := &matrixJSON{N: a.N, M: a.M}
	block := func(b *mat.Matrix) []float64 {
		out := make([]float64, a.M*a.M)
		copy(out, b.Data)
		return out
	}
	for i := 0; i < a.N; i++ {
		mj.Diag = append(mj.Diag, block(a.Diag[i]))
		if i > 0 {
			mj.Lower = append(mj.Lower, block(a.Lower[i]))
		}
		if i < a.N-1 {
			mj.Upper = append(mj.Upper, block(a.Upper[i]))
		}
	}
	return mj
}

// overflowBody registers one block of m = 2^32: m*m wraps to 0 in an int,
// so its empty block once passed the length check and the handler
// panicked on the wrapped shape.
const overflowBody = `{"n":1,"m":4294967296,"diag":[[]],"lower":[],"upper":[]}`

// FuzzMatrixJSON decodes arbitrary bodies as the register handler does and
// converts them. It must never panic, and any matrix it builds must
// validate and hold no more values than the body has bytes.
func FuzzMatrixJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, a := range []*blocktri.Matrix{blocktri.RandomDiagDominant(3, 2, rng), blocktri.RandomDiagDominant(1, 1, rng)} {
		body, err := json.Marshal(toWire(a))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(overflowBody))
	f.Fuzz(func(t *testing.T, body []byte) {
		var mj matrixJSON
		if json.NewDecoder(bytes.NewReader(body)).Decode(&mj) != nil {
			return
		}
		a, err := mj.toMatrix()
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("toMatrix built an invalid matrix: %v", err)
		}
		values := 0.0 // in float64, so a shape whose area wraps cannot count as small
		for _, band := range [][]*mat.Matrix{a.Lower, a.Diag, a.Upper} {
			for _, b := range band {
				if b != nil {
					values += float64(b.Rows) * float64(b.Cols)
				}
			}
		}
		if values > float64(len(body)) {
			t.Fatalf("a %d-byte body built a matrix of %g values", len(body), values)
		}
	})
}

func newTestServer(t *testing.T) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.New(serve.Config{P: 2, QueueDepth: 16})
	ts := httptest.NewServer(newHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func TestHTTPRegisterAndSolve(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(42))
	a := blocktri.RandomDiagDominant(6, 2, rng)

	resp := postJSON(t, ts.URL+"/v1/matrices/poisson", toWire(a))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	b := a.RandomRHS(2, rng)
	req := solveRequest{Tenant: "alice", MatrixID: "poisson", DeadlineMs: 30000}
	for j := 0; j < b.Cols; j++ {
		col := make([]float64, b.Rows)
		for i := range col {
			col[i] = b.Data[i*b.Stride+j]
		}
		req.B = append(req.B, col)
	}
	resp = postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	sr := decodeBody[solveResponse](t, resp)
	if len(sr.X) != b.Cols {
		t.Fatalf("got %d solution columns, want %d", len(sr.X), b.Cols)
	}
	x := mat.New(b.Rows, b.Cols)
	for j, col := range sr.X {
		for i, v := range col {
			x.Data[i*x.Stride+j] = v
		}
	}
	if r := a.RelResidual(x, b); r > 1e-7 {
		t.Fatalf("residual %.3e > 1e-7", r)
	}

	// A second solve against the same id must hit the warm factor.
	resp = postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: status %d", resp.StatusCode)
	}
	if sr := decodeBody[solveResponse](t, resp); !sr.Warm {
		t.Fatal("second solve against registered matrix was not warm")
	}
}

func TestHTTPInlineMatrixSolve(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(7))
	a := blocktri.RandomDiagDominant(5, 1, rng)
	b := a.RandomRHS(1, rng)
	req := solveRequest{Tenant: "bob", Matrix: toWire(a)}
	col := make([]float64, b.Rows)
	for i := range col {
		col[i] = b.Data[i*b.Stride]
	}
	req.B = [][]float64{col}
	resp := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline solve: status %d", resp.StatusCode)
	}
	sr := decodeBody[solveResponse](t, resp)
	x := mat.New(b.Rows, 1)
	copy(x.Data, sr.X[0])
	if r := a.RelResidual(x, b); r > 1e-7 {
		t.Fatalf("residual %.3e > 1e-7", r)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	ts, srv := newTestServer(t)

	// Unknown matrix id -> 404.
	resp := postJSON(t, ts.URL+"/v1/solve",
		solveRequest{Tenant: "a", MatrixID: "nope", B: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown matrix: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing b -> 400.
	resp = postJSON(t, ts.URL+"/v1/solve", solveRequest{Tenant: "a", MatrixID: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing b: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed JSON -> 400.
	mresp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", mresp.StatusCode)
	}
	mresp.Body.Close()

	// A block size whose square overflows -> 400.
	oresp, err := http.Post(ts.URL+"/v1/matrices/x", "application/json", strings.NewReader(overflowBody))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if oresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing block size: status %d, want 400", oresp.StatusCode)
	}
	oresp.Body.Close()

	// Ragged matrix blocks -> 400.
	resp = postJSON(t, ts.URL+"/v1/matrices/bad", &matrixJSON{
		N: 2, M: 1, Diag: [][]float64{{1}, {1, 2}}, Lower: [][]float64{{0}}, Upper: [][]float64{{0}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged blocks: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Closed server -> 503. Register first so admission, not matrix
	// resolution, is what rejects.
	rng := rand.New(rand.NewSource(3))
	a := blocktri.RandomDiagDominant(4, 1, rng)
	resp = postJSON(t, ts.URL+"/v1/matrices/x", toWire(a))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	srv.Close()
	resp = postJSON(t, ts.URL+"/v1/solve",
		solveRequest{Tenant: "a", MatrixID: "x", B: [][]float64{{1, 2, 3, 4}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPStatsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	stats := decodeBody[map[string]any](t, resp)
	if len(stats) == 0 {
		t.Fatal("stats response was empty")
	}
}

func TestRetryAfterHeader(t *testing.T) {
	rec := httptest.NewRecorder()
	writeServeError(rec, &serve.OverloadError{Queued: 9, RetryAfter: 1500 * time.Millisecond})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overload: status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (1.5s rounds up)", got, "2")
	}

	rec = httptest.NewRecorder()
	writeServeError(rec, &serve.CircuitError{Key: "k", Failures: 3, RetryAfter: 100 * time.Millisecond})
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q (floor is one second)", got, "1")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{time.Second, "1"},
		{time.Second + time.Millisecond, "2"},
		{5 * time.Second, "5"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
