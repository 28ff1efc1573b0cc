package serve

// Ingest and query handlers. Every handler is tenant-generic: the
// legacy /v1/... routes bind to the adopted "default" tenant and the
// /v1/tenants/{id}/... routes resolve {id} through the registry, but
// both run the same code path below.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/pca"
	"swsketch/internal/registry"
)

// apiError is a deferred error envelope: handlers that serve multiple
// tenants per request (bulk ingest) need error values they can embed
// per item instead of writing the response immediately.
type apiError struct {
	status int
	code   string
	msg    string
}

func errf(status int, code, format string, args ...interface{}) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

func (e *apiError) write(w http.ResponseWriter) {
	httpError(w, e.status, e.code, "%s", e.msg)
}

// decodeBody decodes a JSON request body into v: the body is capped at
// the WithMaxBody limit (413 beyond it) and unknown fields are
// rejected.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) *apiError {
	body := r.Body
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"body exceeds %d bytes", tooLarge.Limit)
		}
		return errf(http.StatusBadRequest, CodeInvalidJSON, "bad JSON: %v", err)
	}
	return nil
}

type ingestRequest struct {
	Updates []ingestUpdate `json:"updates"`
}

type ingestUpdate struct {
	Row []float64 `json:"row,omitempty"`
	// Sparse form: parallel indices/values; mutually exclusive with Row.
	Idx []int     `json:"idx,omitempty"`
	Val []float64 `json:"val,omitempty"`
	T   float64   `json:"t"`
}

// dense checks one JSON update's shape and finiteness for dimension d
// and returns its dense row; a sparse idx/val update is scattered
// here, so the sketch only ever sees dense rows.
func (u ingestUpdate) dense(d int) ([]float64, error) {
	if len(u.Idx) == 0 && len(u.Val) == 0 {
		return u.Row, checkRow(u.Row, d)
	}
	if len(u.Row) > 0 {
		return nil, fmt.Errorf("row and idx/val are mutually exclusive")
	}
	if len(u.Idx) != len(u.Val) {
		return nil, fmt.Errorf("%d indices but %d values", len(u.Idx), len(u.Val))
	}
	prev := -1
	for _, ix := range u.Idx {
		if ix <= prev || ix >= d {
			return nil, fmt.Errorf("sparse index %d invalid for dimension %d", ix, d)
		}
		prev = ix
	}
	if err := checkFiniteVals(u.Val); err != nil {
		return nil, err
	}
	return mat.SparseRow{Idx: u.Idx, Val: u.Val}.Dense(d), nil
}

// checkRow checks a dense row's length and finiteness.
func checkRow(row []float64, d int) error {
	if len(row) != d {
		return fmt.Errorf("row length %d, want %d", len(row), d)
	}
	return checkFiniteVals(row)
}

// batch is one ingest request's updates in wire order, as the
// admission pass in ingestLocked reads them: JSON routes pass a
// jsonBatch, binary frames the already-dense frameBatch.
type batch interface {
	len() int
	// at returns update i's dense row and timestamp, or why the row
	// is malformed for dimension d.
	at(i, d int) (row []float64, t float64, err error)
}

type jsonBatch []ingestUpdate

func (b jsonBatch) len() int { return len(b) }

func (b jsonBatch) at(i, d int) ([]float64, float64, error) {
	row, err := b[i].dense(d)
	return row, b[i].T, err
}

type frameBatch struct {
	rows  [][]float64
	times []float64
}

func (b frameBatch) len() int { return len(b.rows) }

func (b frameBatch) at(i, d int) ([]float64, float64, error) {
	return b.rows[i], b.times[i], checkRow(b.rows[i], d)
}

type ingestResponse struct {
	Accepted int     `json:"accepted"`
	LastT    float64 `json:"last_t"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.ingestInto(w, r, s.def)
}

func (s *Server) handleTenantIngest(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOf(w, r); ok {
		s.ingestInto(w, r, t)
	}
}

// ingestInto decodes an ingest body and applies it to one tenant.
func (s *Server) ingestInto(w http.ResponseWriter, r *http.Request, t *registry.Tenant) {
	var req ingestRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		apiErr.write(w)
		return
	}
	resp, apiErr := s.ingestTenant(t, jsonBatch(req.Updates))
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	writeJSON(w, resp)
}

// ingestTenant validates and applies a batch of updates to a tenant,
// acquiring it for the duration. The batch is all-or-nothing: it is
// validated against the tenant's clock and dimension before any row
// touches the sketch.
func (s *Server) ingestTenant(t *registry.Tenant, b batch) (ingestResponse, *apiError) {
	if b.len() == 0 {
		return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument, "no updates")
	}
	if err := t.Acquire(); err != nil {
		s.hot.ObserveEvent(t.ID())
		return ingestResponse{}, acquireError(t, err)
	}
	defer t.Release()
	resp, apiErr := s.ingestLocked(t, b)
	if apiErr != nil {
		// Rejected batches (clock regressions, bad rows, sketch
		// conflicts) land on the sidecar's events plane.
		s.hot.ObserveEvent(t.ID())
	}
	return resp, apiErr
}

// ingestLocked is the one ingest core; the caller holds the tenant.
// One pass checks every update in order — its timestamp against the
// running clock, then its shape and finiteness — and gathers the batch
// into a dense block, which is logged to the WAL and then applied with
// one UpdateBatch call.
func (s *Server) ingestLocked(t *registry.Tenant, b batch) (ingestResponse, *apiError) {
	d := t.D()
	prev, seen := t.Clock()
	n := b.len()
	rows := make([][]float64, n)
	times := make([]float64, n)
	for i := range rows {
		row, ts, err := b.at(i, d)
		if seen && ts < prev {
			return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: timestamp %v precedes %v", i, ts, prev)
		}
		if err != nil {
			return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: %v", i, err)
		}
		rows[i], times[i] = row, ts
		prev, seen = ts, true
	}
	if apiErr := s.walAppendRows(t, rows, times); apiErr != nil {
		return ingestResponse{}, apiErr
	}
	// The sketch enforces invariants the server cannot fully check —
	// e.g. after a snapshot restore the sketch's internal clock may be
	// ahead of the server's, and DI/DS-FD refuse rows over their
	// declared norm bound R. Surface those as 409 instead of crashing
	// the connection.
	if err := applyBatch(t.Sketch(), rows, times); err != nil {
		return ingestResponse{}, errf(http.StatusConflict, CodeConflict,
			"ingest rejected by sketch: %v", err)
	}
	t.Commit(n, prev)
	// Committed rows feed the sidecar's rows plane; the bytes plane
	// gets the dense payload size (8 bytes × d per row).
	s.hot.ObserveIngest(t.ID(), n, 8*d*n)
	if t == s.def {
		s.observeAudit(rows, times)
	}
	return ingestResponse{Accepted: n, LastT: prev}, nil
}

// observeAudit feeds freshly ingested default-tenant rows to the
// auditor. The caller holds the default tenant, so the query closure
// (which the auditor may invoke for a stride-triggered evaluation)
// reads the sketch consistently. The closure queries the undecorated
// sketch so audit evaluations don't pollute the serving query-latency
// metrics.
func (s *Server) observeAudit(rows [][]float64, times []float64) {
	if s.audit == nil {
		return
	}
	s.audit.ObserveBatch(rows, times, func(t float64) *mat.Dense {
		return s.def.Raw().Query(t)
	})
}

// acquireError maps a Tenant.Acquire failure onto the envelope:
// concurrent deletion is a 404, an unreadable spill file a 500.
func acquireError(t *registry.Tenant, err error) *apiError {
	if errors.Is(err, registry.ErrDeleted) {
		return errf(http.StatusNotFound, CodeNotFound, "tenant %q deleted", t.ID())
	}
	return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
}

// queryTime parses ?t= against an acquired tenant's clock; when
// omitted, the last ingested timestamp is used (query "now").
func queryTime(w http.ResponseWriter, r *http.Request, t *registry.Tenant) (float64, bool) {
	last, seen := t.Clock()
	tq := r.URL.Query().Get("t")
	if tq == "" {
		return last, true
	}
	qt, err := strconv.ParseFloat(tq, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "bad t %q", tq)
		return 0, false
	}
	if seen && qt < last {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"t %v precedes last ingested %v", qt, last)
		return 0, false
	}
	return qt, true
}

type approximationResponse struct {
	Rows [][]float64 `json:"rows"`
	T    float64     `json:"t"`
}

func (s *Server) handleApproximation(w http.ResponseWriter, r *http.Request) {
	s.approximation(w, r, s.def)
}

func (s *Server) handleTenantApproximation(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOf(w, r); ok {
		s.approximation(w, r, t)
	}
}

func (s *Server) approximation(w http.ResponseWriter, r *http.Request, t *registry.Tenant) {
	if !s.acquire(w, t) {
		return
	}
	qt, ok := queryTime(w, r, t)
	if !ok {
		t.Release()
		return
	}
	b := t.Sketch().Query(qt)
	t.Release()
	rows := make([][]float64, b.Rows())
	for i := range rows {
		rows[i] = b.RowCopy(i)
	}
	writeJSON(w, approximationResponse{Rows: rows, T: qt})
}

type pcaResponse struct {
	Components [][]float64 `json:"components"`
	Explained  []float64   `json:"explained"`
	T          float64     `json:"t"`
}

func (s *Server) handlePCA(w http.ResponseWriter, r *http.Request) {
	s.pca(w, r, s.def)
}

func (s *Server) handleTenantPCA(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOf(w, r); ok {
		s.pca(w, r, t)
	}
}

func (s *Server) pca(w http.ResponseWriter, r *http.Request, t *registry.Tenant) {
	k := 3
	if kq := r.URL.Query().Get("k"); kq != "" {
		var err error
		k, err = strconv.Atoi(kq)
		if err != nil || k < 1 {
			httpError(w, http.StatusBadRequest, CodeInvalidArgument, "bad k %q", kq)
			return
		}
	}
	if !s.acquire(w, t) {
		return
	}
	qt, ok := queryTime(w, r, t)
	if !ok {
		t.Release()
		return
	}
	b := t.Sketch().Query(qt)
	t.Release()
	if b.Rows() == 0 {
		writeJSON(w, pcaResponse{Components: [][]float64{}, Explained: []float64{}, T: qt})
		return
	}
	res := pca.Compute(b, k)
	comps := make([][]float64, res.Components.Rows())
	for i := range comps {
		comps[i] = res.Components.RowCopy(i)
	}
	writeJSON(w, pcaResponse{Components: comps, Explained: res.Explained, T: qt})
}

type statsResponse struct {
	Algorithm  string             `json:"algorithm"`
	Dimension  int                `json:"dimension"`
	RowsStored int                `json:"rows_stored"`
	Updates    uint64             `json:"updates"`
	LastT      float64            `json:"last_t"`
	Internals  map[string]float64 `json:"internals,omitempty"`
}

// tenantStatsResponse extends the stats payload with tenant identity
// and residency for the /v1/tenants/{id}/stats route.
type tenantStatsResponse struct {
	Tenant string `json:"tenant"`
	statsResponse
	Resident bool `json:"resident"`
	Pinned   bool `json:"pinned,omitempty"`
}

func (s *Server) statsOf(w http.ResponseWriter, t *registry.Tenant) (statsResponse, bool) {
	if !s.acquire(w, t) {
		return statsResponse{}, false
	}
	defer t.Release()
	lastT, _ := t.Clock()
	resp := statsResponse{
		Algorithm:  t.Sketch().Name(),
		Dimension:  t.D(),
		RowsStored: t.Sketch().RowsStored(),
		Updates:    t.Updates(),
		LastT:      lastT,
	}
	if in, ok := t.Raw().(core.Introspector); ok {
		resp.Internals = in.Stats()
	}
	return resp, true
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	if resp, ok := s.statsOf(w, s.def); ok {
		writeJSON(w, resp)
	}
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	resp, ok := s.statsOf(w, t)
	if !ok {
		return
	}
	writeJSON(w, tenantStatsResponse{
		Tenant:        t.ID(),
		statsResponse: resp,
		Resident:      t.Resident(),
		Pinned:        t.Pinned(),
	})
}
