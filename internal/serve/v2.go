package serve

// The /v2 route group: the tenant-first regrammar of the HTTP API.
// Where /v1 grew tenant routes alongside legacy single-sketch aliases,
// /v2 makes the tenant the only noun — the default tenant is addressed
// by name — and adds the streaming ingest plane:
//
//	GET    /v2/tenants                     list tenants
//	PUT    /v2/tenants/{id}                create (body: registry.Config)
//	GET    /v2/tenants/{id}                summary + config
//	DELETE /v2/tenants/{id}                remove
//	POST   /v2/tenants/{id}/rows           batch ingest (as /v1/.../ingest)
//	POST   /v2/tenants/{id}/stream         streaming ingest (NDJSON or
//	                                       binary frames; see stream.go)
//	GET    /v2/tenants/{id}/approximation  window approximation
//	GET    /v2/tenants/{id}/amm            windowed AᵀB product estimate
//	POST   /v2/tenants/{id}/amm            same, timestamp in a JSON body
//	GET    /v2/tenants/{id}/pca            top-k window PCA
//	GET    /v2/tenants/{id}/stats          sketch metadata + internals
//	GET    /v2/tenants/{id}/health         liveness + residency
//	GET    /v2/tenants/{id}/snapshot       binary snapshot
//	POST   /v2/tenants/{id}/snapshot       restore
//	POST   /v2/rows                        multi-tenant bulk ingest
//	GET    /v2/health                      server health (audit + WAL)
//
// Every /v1 response carries "Deprecation: true" plus a Link header
// naming its /v2 successor; /v1 bodies are byte-for-byte unchanged.
// The /v2 bulk results and stream acks share one per-item envelope
// (itemResult) so clients parse a single shape everywhere.

import (
	"fmt"
	"net/http"
)

// DefaultStreamQueue is the per-tenant bound on in-flight stream
// blocks before the backpressure gate sheds load; see WithStreamQueue.
const DefaultStreamQueue = 64

// WithStreamQueue bounds each tenant's in-flight streaming-ingest
// blocks: a stream open or block beyond the bound is shed with 429 +
// Retry-After (or an "overloaded" ack mid-stream) instead of queueing
// unboundedly. The default is DefaultStreamQueue.
func WithStreamQueue(n int) Option {
	return func(s *Server) {
		if n < 1 {
			panic(fmt.Sprintf("serve: stream queue %d", n))
		}
		s.streamQueue = n
	}
}

// deprecated decorates a /v1 handler with the RFC-style deprecation
// headers pointing at its /v2 successor. Bodies are untouched.
func (s *Server) deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	link := fmt.Sprintf("<%s>; rel=\"successor-version\"", successor)
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", link)
		h(w, r)
	}
}

// registerV2 mounts the /v2 route group; handle is Handler's
// method-pattern registrar.
func (s *Server) registerV2(handle func(pattern string, h http.HandlerFunc, allow ...string)) {
	handle("GET /v2/tenants", s.handleTenantList, "GET")
	handle("PUT /v2/tenants/{id}", s.handleTenantPut)  // fallback shared below
	handle("GET /v2/tenants/{id}", s.handleTenantInfo) // fallback shared below
	handle("DELETE /v2/tenants/{id}", s.handleTenantDelete, "GET", "PUT", "DELETE")
	handle("POST /v2/tenants/{id}/rows", s.handleTenantIngest, "POST")
	handle("POST /v2/tenants/{id}/stream", s.handleStream, "POST")
	handle("GET /v2/tenants/{id}/approximation", s.handleTenantApproximation, "GET")
	handle("GET /v2/tenants/{id}/amm", s.handleTenantAMM) // fallback shared below
	handle("POST /v2/tenants/{id}/amm", s.handleTenantAMM, "GET", "POST")
	handle("GET /v2/tenants/{id}/pca", s.handleTenantPCA, "GET")
	handle("GET /v2/tenants/{id}/stats", s.handleTenantStats, "GET")
	handle("GET /v2/tenants/{id}/health", s.handleTenantHealth, "GET")
	handle("GET /v2/tenants/{id}/snapshot", s.handleTenantSnapshotGet) // fallback shared below
	handle("POST /v2/tenants/{id}/snapshot", s.handleTenantSnapshotPost, "GET", "POST")
	handle("POST /v2/rows", s.handleV2Bulk, "POST")
	handle("GET /v2/health", s.handleHealth, "GET")
}

// itemResult is the unified per-item outcome envelope shared by the
// /v2 bulk-ingest results and the stream ack frames: Index orders the
// item within its request or stream, ID names the tenant where one is
// not implied by the route, and Error reuses the top-level envelope's
// {"code","message"} body.
type itemResult struct {
	Index    int        `json:"index"`
	ID       string     `json:"id,omitempty"`
	Accepted int        `json:"accepted"`
	LastT    float64    `json:"last_t,omitempty"`
	Error    *errorBody `json:"error,omitempty"`
}

type v2BulkResponse struct {
	Results []itemResult `json:"results"`
}

// handleV2Bulk is POST /v2/rows: bulkIngest, always 200, with the
// unified itemResult envelope.
func (s *Server) handleV2Bulk(w http.ResponseWriter, r *http.Request) {
	if results, ok := s.bulkIngest(w, r); ok {
		writeJSON(w, v2BulkResponse{Results: results})
	}
}
