package serve

// Tenant lifecycle routes (/v1/tenants...) and the bulk multi-tenant
// ingest route. Tenant IDs accepted over HTTP are restricted to
// [A-Za-z0-9._-] and at most registry.MaxIDLen bytes; the registry
// itself allows any non-empty string (programmatic callers may use
// richer IDs), the serve layer is stricter so IDs embed cleanly in
// URLs, metric labels, and log lines.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"swsketch/internal/registry"
)

// validTenantID reports whether an ID is acceptable over the HTTP API.
func validTenantID(id string) bool {
	if id == "" || len(id) > registry.MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

type tenantListResponse struct {
	Tenants []registry.Info `json:"tenants"`
}

func (s *Server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	infos := s.treg.List()
	if infos == nil {
		infos = []registry.Info{}
	}
	writeJSON(w, tenantListResponse{Tenants: infos})
}

// tenantInfoResponse is the GET /v1/tenants/{id} payload (also
// returned by PUT on creation).
type tenantInfoResponse struct {
	ID        string           `json:"id"`
	Algorithm string           `json:"algorithm"`
	Dimension int              `json:"dimension"`
	Resident  bool             `json:"resident"`
	Rows      int              `json:"rows_stored"`
	Updates   uint64           `json:"updates"`
	Pinned    bool             `json:"pinned,omitempty"`
	Config    *registry.Config `json:"config,omitempty"`
}

func tenantInfo(t *registry.Tenant) tenantInfoResponse {
	resp := tenantInfoResponse{
		ID:        t.ID(),
		Algorithm: t.Algorithm(),
		Dimension: t.D(),
		Resident:  t.Resident(),
		Rows:      t.Rows(),
		Updates:   t.Updates(),
		Pinned:    t.Pinned(),
	}
	if cfg := t.Config(); cfg.Framework != "" {
		resp.Config = &cfg
	}
	return resp
}

// handleTenantPut creates a tenant from a declarative config. The body
// is a registry.Config JSON object; unknown fields are rejected. A
// duplicate ID answers 409 conflict, a config the registry cannot
// build answers 400 invalid_argument.
func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validTenantID(id) {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"tenant ID must match [A-Za-z0-9._-]{1,%d}", registry.MaxIDLen)
		return
	}
	if id == DefaultTenant {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"tenant ID %q is reserved", DefaultTenant)
		return
	}
	var cfg registry.Config
	if apiErr := s.decodeBody(w, r, &cfg); apiErr != nil {
		apiErr.write(w)
		return
	}
	t, err := s.treg.Create(id, cfg)
	switch {
	case errors.Is(err, registry.ErrExists):
		httpError(w, http.StatusConflict, CodeConflict, "tenant %q already exists", id)
		return
	case errors.Is(err, registry.ErrBadID):
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		return
	}
	if s.wal != nil {
		// Log the normalized config (t.Config), not the request body, so
		// replay rebuilds exactly what was built. An append failure rolls
		// the creation back: an unlogged tenant would silently vanish on
		// restart.
		cfgJSON, merr := json.Marshal(t.Config())
		if merr == nil {
			_, merr = s.wal.AppendCreate(id, cfgJSON)
		}
		if merr != nil {
			s.treg.Delete(id)
			httpError(w, http.StatusInternalServerError, CodeInternal, "wal append: %v", merr)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(tenantInfo(t))
}

func (s *Server) handleTenantInfo(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOf(w, r); ok {
		writeJSON(w, tenantInfo(t))
	}
}

type tenantDeleteResponse struct {
	Deleted string `json:"deleted"`
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == DefaultTenant {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"tenant %q cannot be deleted", DefaultTenant)
		return
	}
	if !s.treg.Delete(id) {
		httpError(w, http.StatusNotFound, CodeNotFound, "no tenant %q", id)
		return
	}
	if s.wal != nil {
		// Best effort: the registry delete already released the tenant's
		// WAL records via the evict hook; the delete record only stops a
		// replay from resurrecting a tenant logged earlier.
		_, _ = s.wal.AppendDelete(id)
	}
	writeJSON(w, tenantDeleteResponse{Deleted: id})
}

// tenantHealthResponse is the GET /v1/tenants/{id}/health payload: a
// cheap liveness/residency probe that never forces a spilled tenant
// back into memory (unlike the query routes, it does not Acquire).
type tenantHealthResponse struct {
	Status   string `json:"status"`
	Tenant   string `json:"tenant"`
	Resident bool   `json:"resident"`
	Updates  uint64 `json:"updates"`
}

func (s *Server) handleTenantHealth(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, tenantHealthResponse{
		Status:   "ok",
		Tenant:   t.ID(),
		Resident: t.Resident(),
		Updates:  t.Updates(),
	})
}

type bulkIngestRequest struct {
	Tenants []bulkTenantUpdates `json:"tenants"`
}

type bulkTenantUpdates struct {
	ID      string         `json:"id"`
	Updates []ingestUpdate `json:"updates"`
}

// bulkResult is one tenant's outcome inside a /v1 bulk ingest
// response: either Accepted/LastT on success or Error on failure.
type bulkResult struct {
	ID       string     `json:"id"`
	Accepted int        `json:"accepted"`
	LastT    float64    `json:"last_t,omitempty"`
	Error    *errorBody `json:"error,omitempty"`
}

type bulkIngestResponse struct {
	Results []bulkResult `json:"results"`
}

// bulkIngest is the loop behind /v1/ingest/bulk and /v2/rows, which
// differ only in their result shape. Each tenant's batch is
// all-or-nothing, but tenants are independent: one tenant's failure
// (reported in its result's error, with the same codes as
// single-tenant ingest) does not abort the others, and results come
// back one per requested tenant, in request order. On false the error
// response has been written.
func (s *Server) bulkIngest(w http.ResponseWriter, r *http.Request) ([]itemResult, bool) {
	var req bulkIngestRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		apiErr.write(w)
		return nil, false
	}
	if len(req.Tenants) == 0 {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "no tenants")
		return nil, false
	}
	results := make([]itemResult, len(req.Tenants))
	for i, item := range req.Tenants {
		res := itemResult{Index: i, ID: item.ID}
		t, ok := s.treg.Get(item.ID)
		if !ok {
			// Attribute the miss to the requested key: a bulk client
			// hammering a deleted tenant shows up on the events plane.
			s.hot.ObserveEvent(item.ID)
			res.Error = &errorBody{Code: CodeNotFound, Message: fmt.Sprintf("no tenant %q", item.ID)}
		} else if resp, apiErr := s.ingestTenant(t, jsonBatch(item.Updates)); apiErr != nil {
			res.Error = &errorBody{Code: apiErr.code, Message: apiErr.msg}
		} else {
			res.Accepted = resp.Accepted
			res.LastT = resp.LastT
		}
		results[i] = res
	}
	return results, true
}

// handleBulkIngest is POST /v1/ingest/bulk: bulkIngest, always 200,
// with the v1 per-tenant result shape.
func (s *Server) handleBulkIngest(w http.ResponseWriter, r *http.Request) {
	results, ok := s.bulkIngest(w, r)
	if !ok {
		return
	}
	v1 := make([]bulkResult, len(results))
	for i, res := range results {
		v1[i] = bulkResult{ID: res.ID, Accepted: res.Accepted, LastT: res.LastT, Error: res.Error}
	}
	writeJSON(w, bulkIngestResponse{Results: v1})
}
