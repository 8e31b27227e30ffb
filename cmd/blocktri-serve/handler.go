// HTTP handler and JSON wire types for blocktri-serve. Split from main so
// tests can drive the full request path through httptest without a socket.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"blocktri/internal/blocktri"
	"blocktri/internal/mat"
	"blocktri/internal/serve"
)

// matrixJSON is the wire form of a block tridiagonal matrix: N block rows
// of M x M blocks, each block flattened row-major. diag has N blocks,
// lower N-1 (block rows 1..N-1), upper N-1 (block rows 0..N-2).
type matrixJSON struct {
	N     int         `json:"n"`
	M     int         `json:"m"`
	Lower [][]float64 `json:"lower"`
	Diag  [][]float64 `json:"diag"`
	Upper [][]float64 `json:"upper"`
}

// toMatrix validates and converts the wire form. It checks every band
// and block length before it allocates, so the matrix it builds holds
// exactly the values the body carried.
func (mj *matrixJSON) toMatrix() (*blocktri.Matrix, error) {
	if mj.N < 1 || mj.M < 1 {
		return nil, fmt.Errorf("invalid dimensions n=%d m=%d", mj.N, mj.M)
	}
	if len(mj.Diag) != mj.N || len(mj.Lower) != mj.N-1 || len(mj.Upper) != mj.N-1 {
		return nil, fmt.Errorf("band lengths diag=%d lower=%d upper=%d, want %d/%d/%d",
			len(mj.Diag), len(mj.Lower), len(mj.Upper), mj.N, mj.N-1, mj.N-1)
	}
	for _, band := range []struct {
		name   string
		blocks [][]float64
	}{{"lower", mj.Lower}, {"diag", mj.Diag}, {"upper", mj.Upper}} {
		for i, src := range band.blocks {
			// len(src) == M*M, without forming M*M.
			if len(src)%mj.M != 0 || len(src)/mj.M != mj.M {
				return nil, fmt.Errorf("%s block %d has %d entries, want m*m for m=%d", band.name, i, len(src), mj.M)
			}
		}
	}
	a := blocktri.New(mj.N, mj.M)
	for i := 0; i < mj.N; i++ {
		copy(a.Diag[i].Data, mj.Diag[i])
		if i > 0 {
			copy(a.Lower[i].Data, mj.Lower[i-1])
		}
		if i < mj.N-1 {
			copy(a.Upper[i].Data, mj.Upper[i])
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// solveRequest is one solve call. Exactly one of matrix_id / matrix names
// the system; b is the right-hand side as a list of columns, each of
// length N*M.
type solveRequest struct {
	Tenant     string      `json:"tenant"`
	MatrixID   string      `json:"matrix_id"`
	Matrix     *matrixJSON `json:"matrix"`
	B          [][]float64 `json:"b"`
	DeadlineMs int64       `json:"deadline_ms"`
}

// solveResponse mirrors serve.Result with x as a list of columns.
type solveResponse struct {
	X         [][]float64 `json:"x"`
	Warm      bool        `json:"warm"`
	Coalesced int         `json:"coalesced"`
	Boosted   bool        `json:"boosted"`
	Retries   int         `json:"retries"`
	WallNs    int64       `json:"wall_ns"`
}

type errorResponse struct {
	Error string `json:"error"`
}

type handler struct {
	srv *serve.Server
}

func newHandler(srv *serve.Server) http.Handler {
	h := &handler{srv: srv}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrices/{id}", h.register)
	mux.HandleFunc("POST /v1/solve", h.solve)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func (h *handler) register(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var mj matrixJSON
	if err := json.NewDecoder(r.Body).Decode(&mj); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("decoding matrix: %w", err))
		return
	}
	a, err := mj.toMatrix()
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if err := h.srv.Register(id, a); err != nil {
		writeServeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id})
}

func (h *handler) solve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.B) == 0 {
		writeJSONError(w, http.StatusBadRequest, errors.New("missing right-hand side b"))
		return
	}
	rows := len(req.B[0])
	for j, col := range req.B {
		if len(col) != rows {
			writeJSONError(w, http.StatusBadRequest,
				fmt.Errorf("b column %d has %d rows, want %d", j, len(col), rows))
			return
		}
	}
	b := mat.New(rows, len(req.B))
	for j, col := range req.B {
		for i, v := range col {
			b.Data[i*b.Stride+j] = v
		}
	}
	job := serve.Job{Tenant: req.Tenant, MatrixID: req.MatrixID, B: b}
	if req.Matrix != nil {
		a, err := req.Matrix.toMatrix()
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err)
			return
		}
		job.Matrix = a
	}
	if req.DeadlineMs > 0 {
		job.Deadline = time.Now().Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	res, err := h.srv.Submit(r.Context(), job)
	if err != nil {
		writeServeError(w, err)
		return
	}
	resp := solveResponse{
		X:         make([][]float64, res.X.Cols),
		Warm:      res.Warm,
		Coalesced: res.Coalesced,
		Boosted:   res.Boosted,
		Retries:   res.Retries,
		WallNs:    int64(res.Wall),
	}
	for j := range resp.X {
		col := make([]float64, res.X.Rows)
		for i := range col {
			col[i] = res.X.Data[i*res.X.Stride+j]
		}
		resp.X[j] = col
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.srv.Stats())
}

// writeServeError maps the serve error ladder onto HTTP: overload and open
// breakers are 503 with a Retry-After hint, deadline misses are 504,
// structural problems 400/404, everything else 500.
func writeServeError(w http.ResponseWriter, err error) {
	var oe *serve.OverloadError
	var ce *serve.CircuitError
	switch {
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", retryAfterSeconds(oe.RetryAfter))
		writeJSONError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &ce):
		w.Header().Set("Retry-After", retryAfterSeconds(ce.RetryAfter))
		writeJSONError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, serve.ErrDeadlineExceeded):
		writeJSONError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, serve.ErrCanceled):
		// Client went away; 499 is the de-facto code for that.
		writeJSONError(w, 499, err)
	case errors.Is(err, serve.ErrUnknownMatrix):
		writeJSONError(w, http.StatusNotFound, err)
	case errors.Is(err, serve.ErrBadRequest):
		writeJSONError(w, http.StatusBadRequest, err)
	case errors.Is(err, serve.ErrClosed):
		writeJSONError(w, http.StatusServiceUnavailable, err)
	default:
		writeJSONError(w, http.StatusInternalServerError, err)
	}
}

// retryAfterSeconds renders a duration as the integral seconds Retry-After
// wants, rounding up so "soon" never becomes "now".
func retryAfterSeconds(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("blocktri-serve: encoding response: %v", err)
	}
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
