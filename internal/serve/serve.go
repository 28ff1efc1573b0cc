// Package serve exposes sliding-window matrix sketches over HTTP. A
// Server fronts a multi-tenant registry of named sketches
// (internal/registry): every tenant gets ingest and query endpoints
// under /v1/tenants/{id}/..., and the legacy single-sketch routes
// under /v1/ remain as thin aliases for the reserved "default" tenant
// — the sketch passed to NewServer. Per-tenant access serialises on
// the tenant's own mutex, so ingest into different tenants runs in
// parallel.
//
// Routes are registered with Go 1.22 method patterns:
//
//	POST /v1/ingest         body: {"updates":[{"row":[...],"t":1.5},...]}
//	POST /v1/ingest/bulk    body: {"tenants":[{"id":"a","updates":[...]},...]}
//	GET  /v1/approximation  [?t=...]      window approximation B
//	GET  /v1/pca            [?t=...&k=3]  top-k window PCA
//	GET  /v1/stats          sketch metadata + "internals" (Introspector)
//	GET  /v1/health         accuracy health: ok/degraded vs the audit threshold
//	                        (?fresh=1 forces an evaluation) (WithAudit)
//	GET  /v1/snapshot       binary sketch snapshot
//	POST /v1/snapshot       restore a snapshot
//
//	GET    /v1/tenants                       list tenants
//	PUT    /v1/tenants/{id}                  create a tenant (body: registry.Config)
//	GET    /v1/tenants/{id}                  one tenant's summary + config
//	DELETE /v1/tenants/{id}                  remove a tenant (and its spill file)
//	POST   /v1/tenants/{id}/ingest           as /v1/ingest
//	GET    /v1/tenants/{id}/approximation    as /v1/approximation
//	GET    /v1/tenants/{id}/amm              windowed AᵀB estimate (paired
//	POST   /v1/tenants/{id}/amm              frameworks only; 501 otherwise)
//	GET    /v1/tenants/{id}/pca              as /v1/pca
//	GET    /v1/tenants/{id}/stats            as /v1/stats, plus tenant fields
//	GET    /v1/tenants/{id}/health           liveness + residency (no audit)
//	GET    /v1/tenants/{id}/snapshot         as /v1/snapshot
//	POST   /v1/tenants/{id}/snapshot         restore
//
//	GET  /healthz           200 ok
//	GET  /metrics           Prometheus text exposition (WithMetrics)
//	GET  /debug/trace       event-trace JSONL dump (?format=summary for counts)
//	                        (WithTrace)
//	GET  /debug/hotkeys     hot-tenant top-K + traffic-skew telemetry
//	                        (WithHotKeys)
//	     /debug/pprof/...   runtime profiles (WithPprof)
//
// Every error response under /v1 uses the machine-readable envelope
//
//	{"error":{"code":"<code>","message":"<human-readable detail>"}}
//
// with the following codes:
//
//	invalid_json        400  request body is not valid JSON for the endpoint
//	invalid_argument    400  a field or query parameter is out of range
//	method_not_allowed  405  wrong HTTP method (Allow header lists valid ones)
//	not_found           404  unknown route or unknown tenant
//	conflict            409  the sketch's invariants rejected the operation
//	                         (e.g. a timestamp behind a restored clock), or a
//	                         tenant with that ID already exists
//	unsupported         501  the sketch lacks the capability (snapshots)
//	body_too_large      413  body exceeded the WithMaxBody limit
//	internal            500  server-side failure (e.g. a spilled tenant whose
//	                         state could not be restored from disk)
//
// Snapshot endpoints require the underlying sketch to support binary
// snapshots (SWR, SWOR, SWOR-ALL, LM-FD do); others get 501. Tenant
// IDs are restricted to [A-Za-z0-9._-], at most 128 bytes; "default"
// names the adopted legacy sketch and cannot be created or deleted.
package serve

import (
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/obs"
	"swsketch/internal/obs/audit"
	"swsketch/internal/obs/hh"
	"swsketch/internal/registry"
	"swsketch/internal/trace"
	"swsketch/internal/wal"
)

// Error codes of the uniform error envelope; see the package comment.
const (
	CodeInvalidJSON      = "invalid_json"
	CodeInvalidArgument  = "invalid_argument"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeConflict         = "conflict"
	CodeUnsupported      = "unsupported"
	CodeBodyTooLarge     = "body_too_large"
	CodeInternal         = "internal"
)

// DefaultTenant is the reserved tenant ID aliased by the legacy
// single-sketch routes (/v1/ingest and friends): the sketch passed to
// NewServer. It cannot be created, deleted, or evicted over the API.
const DefaultTenant = "default"

// Server routes HTTP traffic onto a tenant registry. The sketch given
// to NewServer is adopted as the pinned "default" tenant; further
// tenants are created over the API or pre-registered in the registry
// passed via WithRegistry.
type Server struct {
	treg *registry.Registry
	def  *registry.Tenant
	d    int // default tenant's dimension

	reg     *obs.Registry
	pprof   bool
	maxBody int64

	tr    *trace.Tracer
	audit *audit.Auditor
	log   *slog.Logger

	wal         *wal.Log
	walDamaged  atomic.Bool
	walFailed   atomic.Int64 // records the last replay's applier refused
	streamQueue int

	hot *hh.Sidecar

	streamRows, streamBlocks, streamShed *obs.Counter
	streamOpen                           *obs.Gauge

	reqSeq    atomic.Uint64
	reqPrefix string
}

// Option configures a Server; see WithMetrics, WithPprof, WithMaxBody.
type Option func(*Server)

// WithMetrics wraps the default tenant's sketch in an obs.Instrumented
// recording ingest/query latencies and internals into reg, instruments
// every route with request counters and latency histograms, and mounts
// GET /metrics serving reg's Prometheus text exposition. When the
// server builds its own registry (no WithRegistry), the registry's
// tenant-lifecycle metrics land in reg too.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithPprof mounts net/http/pprof under /debug/pprof/.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithMaxBody caps request body sizes (ingest and snapshot restore) at
// n bytes; larger bodies get a 413 body_too_large envelope. Zero (the
// default) keeps ingest unlimited and the snapshot restore at its
// built-in 1 GiB guard.
func WithMaxBody(n int64) Option {
	return func(s *Server) {
		if n < 1 {
			panic(fmt.Sprintf("serve: max body %d", n))
		}
		s.maxBody = n
	}
}

// WithTrace attaches an event tracer: the default sketch's structural
// transitions emit into it (when the sketch is trace.Traceable),
// completed requests emit http_request events tagged with their
// request IDs, and GET /debug/trace serves the ring as JSONL. When
// metrics are also active the tracer's per-kind counts and exemplar
// event IDs are bridged into the registry.
func WithTrace(tr *trace.Tracer) Option {
	return func(s *Server) { s.tr = tr }
}

// WithAudit attaches an online accuracy auditor to the default
// tenant: every ingested row is shadowed, cova-err is evaluated on
// the auditor's stride, and GET /v1/health reports ok/degraded
// against its threshold. The auditor's gauges live in whatever
// registry it was built with — pass the same registry to WithMetrics
// to serve them on /metrics.
func WithAudit(a *audit.Auditor) Option {
	return func(s *Server) { s.audit = a }
}

// WithLogger enables structured request logging: one slog record per
// completed request, carrying the request ID that also tags the
// request's trace events. The default is silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithRegistry mounts a caller-built tenant registry (eviction TTL,
// spill directory, caps — see internal/registry's options) instead of
// the plain one the server otherwise creates. The NewServer sketch is
// still adopted into it as the pinned "default" tenant.
func WithRegistry(reg *registry.Registry) Option {
	return func(s *Server) {
		if reg == nil {
			panic("serve: nil registry")
		}
		s.treg = reg
	}
}

// NewServer returns a server around the given default sketch and
// dimension.
func NewServer(sk core.WindowSketch, d int, opts ...Option) *Server {
	if d < 1 {
		panic(fmt.Sprintf("serve: dimension %d", d))
	}
	s := &Server{d: d, streamQueue: DefaultStreamQueue}
	for _, o := range opts {
		o(s)
	}
	// Request IDs: a short per-server entropy prefix plus a counter, so
	// IDs from restarted servers don't collide in aggregated logs.
	s.reqPrefix = strconv.FormatInt(time.Now().UnixNano()&0xffffff, 36)
	if s.treg == nil {
		var ropts []registry.Option
		if s.reg != nil {
			ropts = append(ropts, registry.WithObs(s.reg))
		}
		if s.tr != nil {
			ropts = append(ropts, registry.WithTrace(s.tr))
		}
		treg, err := registry.New(ropts...)
		if err != nil {
			panic(fmt.Sprintf("serve: registry: %v", err))
		}
		s.treg = treg
	}
	def, err := s.treg.Adopt(DefaultTenant, sk, d)
	if errors.Is(err, registry.ErrExists) {
		// The name is reserved: discard any stub a spill-dir scan may
		// have registered under it and take the slot.
		s.treg.Delete(DefaultTenant)
		def, err = s.treg.Adopt(DefaultTenant, sk, d)
	}
	if err != nil {
		panic(fmt.Sprintf("serve: adopt default tenant: %v", err))
	}
	s.def = def
	if s.tr != nil {
		if t, ok := sk.(trace.Traceable); ok {
			t.SetTracer(s.tr)
		}
	}
	if s.reg != nil {
		// Scrape-time reads of the sketch (rows stored, internals) run
		// under the default tenant's lock so /metrics never races an
		// ingest.
		instrumented := obs.NewInstrumented(sk, s.reg, obs.WithSync(func(f func()) {
			if s.def.Acquire() != nil {
				return // the pinned default tenant cannot actually fail
			}
			defer s.def.Release()
			f()
		}))
		_ = s.def.Acquire()
		s.def.SetServing(instrumented)
		s.def.Release()
		obs.RegisterRuntimeMetrics(s.reg)
		obs.RegisterTracer(s.reg, s.tr)
		s.streamRows = s.reg.Counter("swsketch_stream_rows_total",
			"Rows accepted over streaming ingest connections.", nil)
		s.streamBlocks = s.reg.Counter("swsketch_stream_blocks_total",
			"Blocks acknowledged over streaming ingest connections.", nil)
		s.streamShed = s.reg.Counter("swsketch_stream_overloaded_total",
			"Stream opens and blocks shed by the per-tenant backpressure gate.", nil)
		s.streamOpen = s.reg.Gauge("swsketch_stream_open",
			"Streaming ingest connections currently open.", nil)
	}
	if s.hot != nil {
		if s.tr != nil {
			s.hot.SetTracer(s.tr)
		}
		if s.reg != nil {
			s.hot.RegisterMetrics(s.reg)
		}
		// Every successful tenant acquisition feeds the sidecar's
		// touches plane — request-level activity independent of rows.
		s.treg.SetTouchHook(s.hot.Touch)
		if s.wal != nil {
			s.wal.SetAppendHook(func(tenant string, _, bytes int) {
				s.hot.ObserveWAL(tenant, bytes)
			})
		}
	}
	if s.wal != nil || s.hot != nil {
		s.treg.SetEvictHook(func(id string, spilled bool) {
			if s.wal != nil {
				// Spilled or deleted tenants no longer need their WAL records
				// for recovery; release them so closed segments can truncate.
				s.wal.Released(id)
			}
			if s.hot != nil && !spilled {
				// A dropped or deleted tenant leaves the top-K tracker; its
				// count-min contributions decay out on their own.
				s.hot.Forget(id)
			}
		})
	}
	return s
}

// Registry returns the server's tenant registry (for sweepers and
// direct programmatic access).
func (s *Server) Registry() *registry.Registry { return s.treg }

// Handler returns the HTTP routes listed in the package comment.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc, allow ...string) {
		// Method-pattern route plus a same-path fallback answering any
		// other method with a 405 envelope (the stock ServeMux 405 is
		// plain text).
		mux.HandleFunc(pattern, s.wrap(strings.TrimSpace(pattern[strings.Index(pattern, " "):]), h))
		if len(allow) > 0 {
			mux.HandleFunc(strings.TrimSpace(pattern[strings.Index(pattern, " "):]), methodNotAllowed(allow...))
		}
	}
	// /v1 routes stay byte-compatible but every response carries
	// Deprecation and successor-version Link headers pointing at the
	// /v2 grammar (see registerV2).
	v1 := func(pattern, successor string, h http.HandlerFunc, allow ...string) {
		handle(pattern, s.deprecated(successor, h), allow...)
	}
	v1("POST /v1/ingest", "/v2/tenants/default/rows", s.handleIngest, "POST")
	v1("POST /v1/ingest/bulk", "/v2/rows", s.handleBulkIngest, "POST")
	v1("GET /v1/approximation", "/v2/tenants/default/approximation", s.handleApproximation, "GET")
	v1("GET /v1/pca", "/v2/tenants/default/pca", s.handlePCA, "GET")
	v1("GET /v1/stats", "/v2/tenants/default/stats", s.handleStats, "GET")
	v1("GET /v1/health", "/v2/health", s.handleHealth, "GET")
	v1("GET /v1/snapshot", "/v2/tenants/default/snapshot", s.handleSnapshotGet) // fallback shared below
	v1("POST /v1/snapshot", "/v2/tenants/default/snapshot", s.handleSnapshotPost, "GET", "POST")
	v1("GET /v1/tenants", "/v2/tenants", s.handleTenantList, "GET")
	v1("PUT /v1/tenants/{id}", "/v2/tenants/{id}", s.handleTenantPut)  // fallback shared below
	v1("GET /v1/tenants/{id}", "/v2/tenants/{id}", s.handleTenantInfo) // fallback shared below
	v1("DELETE /v1/tenants/{id}", "/v2/tenants/{id}", s.handleTenantDelete, "GET", "PUT", "DELETE")
	v1("POST /v1/tenants/{id}/ingest", "/v2/tenants/{id}/rows", s.handleTenantIngest, "POST")
	v1("GET /v1/tenants/{id}/approximation", "/v2/tenants/{id}/approximation", s.handleTenantApproximation, "GET")
	v1("GET /v1/tenants/{id}/amm", "/v2/tenants/{id}/amm", s.handleTenantAMM) // fallback shared below
	v1("POST /v1/tenants/{id}/amm", "/v2/tenants/{id}/amm", s.handleTenantAMM, "GET", "POST")
	v1("GET /v1/tenants/{id}/pca", "/v2/tenants/{id}/pca", s.handleTenantPCA, "GET")
	v1("GET /v1/tenants/{id}/stats", "/v2/tenants/{id}/stats", s.handleTenantStats, "GET")
	v1("GET /v1/tenants/{id}/health", "/v2/tenants/{id}/health", s.handleTenantHealth, "GET")
	v1("GET /v1/tenants/{id}/snapshot", "/v2/tenants/{id}/snapshot", s.handleTenantSnapshotGet) // fallback shared below
	v1("POST /v1/tenants/{id}/snapshot", "/v2/tenants/{id}/snapshot", s.handleTenantSnapshotPost, "GET", "POST")
	s.registerV2(handle)
	handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}, "GET")
	if s.reg != nil {
		mux.Handle("GET /metrics", s.reg.Handler())
		mux.HandleFunc("/metrics", methodNotAllowed("GET"))
	}
	if s.tr != nil {
		handle("GET /debug/trace", s.handleTrace, "GET")
	}
	if s.hot != nil {
		handle("GET /debug/hotkeys", s.handleHotkeys, "GET")
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Catch-all so unknown routes answer with the envelope too.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, CodeNotFound, "no route %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// wrap decorates a handler with the per-request observability plane:
// an X-Request-ID response header, per-route latency/count metrics
// (WithMetrics), an http_request trace event carrying the request ID
// (WithTrace), and one slog record per completed request (WithLogger).
// With none of the three active it is the identity. Route labels use
// the registered pattern ("/v1/tenants/{id}/ingest"), not the raw
// path, so metric cardinality stays bounded by the route table.
func (s *Server) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil && s.tr == nil && s.log == nil {
		return h
	}
	var hist *obs.Histogram
	if s.reg != nil {
		hist = s.reg.Histogram("swsketch_http_request_seconds",
			"HTTP request latency by route.", obs.Labels{"route": route}, nil)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.reqPrefix + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		dur := time.Since(start)
		if hist != nil {
			hist.Observe(dur.Seconds())
			s.reg.Counter("swsketch_http_requests_total",
				"HTTP requests by route and status code.",
				obs.Labels{"route": route, "code": strconv.Itoa(sw.code)}).Inc()
		}
		if s.tr.Enabled() {
			// V1 = status code, V2 = latency in seconds; the note carries
			// the request ID so a log line or response header can be
			// joined against the trace ring.
			s.tr.EmitNote("serve", trace.KindHTTP, 0,
				float64(sw.code), dur.Seconds(), id+" "+r.Method+" "+route)
		}
		if s.log != nil {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Duration("duration", dur),
			)
		}
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.ResponseController
// (the stream handler's flusher) can reach it through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// methodNotAllowed answers with the 405 envelope and an Allow header.
func methodNotAllowed(allow ...string) http.HandlerFunc {
	allowed := strings.Join(allow, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allowed)
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"method %s not allowed (allow: %s)", r.Method, allowed)
	}
}

// acquire locks a tenant for the duration of a request, translating
// acquisition failures (concurrent deletion, unreadable spill file)
// into envelope errors. On true the caller must Release.
func (s *Server) acquire(w http.ResponseWriter, t *registry.Tenant) bool {
	err := t.Acquire()
	if err == nil {
		return true
	}
	if errors.Is(err, registry.ErrDeleted) {
		httpError(w, http.StatusNotFound, CodeNotFound, "tenant %q deleted", t.ID())
	} else {
		httpError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	return false
}

// tenantOf resolves the {id} path segment against the registry.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) (*registry.Tenant, bool) {
	id := r.PathValue("id")
	t, ok := s.treg.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no tenant %q", id)
		return nil, false
	}
	return t, true
}

// errorBody is the payload of the uniform error envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handleTrace dumps the trace ring. The default body is JSONL (one
// event per line, oldest first); ?format=summary returns the per-kind
// counts and ring occupancy as a single JSON object.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	switch f := r.URL.Query().Get("format"); f {
	case "summary":
		writeJSON(w, s.tr.Summarize())
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.tr.WriteJSONL(w)
	default:
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "bad format %q", f)
	}
}

// checkFiniteVals rejects NaN and overflow-ish values before they
// reach a sketch.
func checkFiniteVals(vals []float64) error {
	for j, v := range vals {
		if v != v || v > 1e308 || v < -1e308 { // NaN or overflow-ish
			return fmt.Errorf("non-finite value at %d", j)
		}
	}
	return nil
}

// applyBatch is the one guard between the server and a sketch: every
// ingest route and WAL replay hands it a dense block, which reaches the
// sketch through UpdateBatch; sketch panics (invariant violations)
// come back as errors.
func applyBatch(sk core.WindowSketch, rows [][]float64, times []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	sk.UpdateBatch(rows, times)
	return nil
}

// snapshotGet downloads a tenant's sketch state when the sketch
// supports binary snapshots.
func (s *Server) snapshotGet(w http.ResponseWriter, t *registry.Tenant) {
	if !s.acquire(w, t) {
		return
	}
	defer t.Release()
	m, ok := t.Raw().(encoding.BinaryMarshaler)
	if !ok {
		httpError(w, http.StatusNotImplemented, CodeUnsupported,
			"%s does not support snapshots", t.Raw().Name())
		return
	}
	data, err := m.MarshalBinary()
	if errors.Is(err, core.ErrSnapshotUnsupported) {
		httpError(w, http.StatusNotImplemented, CodeUnsupported,
			"%s does not support snapshots", t.Raw().Name())
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, CodeInternal, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// snapshotPost replaces a tenant's sketch state from an uploaded
// snapshot. On success the tenant's ingest clock (updates, lastT,
// seen) resets to zero: the restored sketch carries its own clock, and
// keeping the pre-restore lastT would make default-t queries answer at
// a timestamp unrelated to the restored state.
func (s *Server) snapshotPost(w http.ResponseWriter, r *http.Request, t *registry.Tenant) {
	limit := int64(1 << 30)
	if s.maxBody > 0 {
		limit = s.maxBody
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "read body: %v", err)
		return
	}
	if int64(len(data)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			"body exceeds %d bytes", limit)
		return
	}
	if !s.acquire(w, t) {
		return
	}
	defer t.Release()
	u, ok := t.Raw().(encoding.BinaryUnmarshaler)
	if !ok {
		httpError(w, http.StatusNotImplemented, CodeUnsupported,
			"%s does not support snapshots", t.Raw().Name())
		return
	}
	if err := u.UnmarshalBinary(data); err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "restore: %v", err)
		return
	}
	t.ResetClock()
	if s.wal != nil {
		// The logged snapshot supersedes the tenant's earlier records —
		// replay restores the blob instead of re-running them — and its
		// append lets the WAL truncate behind it.
		if _, err := s.wal.AppendSnapshot(t.ID(), 0, 0, false, data); err != nil {
			httpError(w, http.StatusInternalServerError, CodeInternal, "wal append: %v", err)
			return
		}
	}
	if t == s.def {
		// The restored window's contents are unknowable to the shadow
		// oracle; re-arm it in the warming state.
		s.audit.Reset()
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "restored")
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, _ *http.Request) {
	s.snapshotGet(w, s.def)
}

func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	s.snapshotPost(w, r, s.def)
}

func (s *Server) handleTenantSnapshotGet(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOf(w, r); ok {
		s.snapshotGet(w, t)
	}
}

func (s *Server) handleTenantSnapshotPost(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOf(w, r); ok {
		s.snapshotPost(w, r, t)
	}
}

// healthResponse is the GET /v1/health payload. Status is "ok" or
// "degraded"; Detail carries the auditor's full view when one is
// attached.
type healthResponse struct {
	Status string        `json:"status"`
	Audit  bool          `json:"audit"`
	Detail *audit.Status `json:"detail,omitempty"`
	// WAL reports the write-ahead log's replay outcome; present only
	// when a WAL is attached (v1 responses without one are unchanged).
	WAL *walHealth `json:"wal,omitempty"`
	// HotKeys reports the hot-key sidecar's configuration; present
	// only when one is attached (WithHotKeys).
	HotKeys *hotkeysHealth `json:"hotkeys,omitempty"`
}

// walHealth is the health endpoints' view of the write-ahead log.
type walHealth struct {
	// Replayed is false until RecoverWAL has run.
	Replayed bool `json:"replayed"`
	// Damaged reports corruption found during replay (a CRC mismatch or
	// a mid-segment tear): recovery stopped early on that shard and the
	// server is serving a possibly incomplete restore.
	Damaged bool `json:"damaged,omitempty"`
	// Failed counts logged records that replay could not apply (for
	// example a block over a di-fd tenant's declared R: the log keeps
	// it, the sketch refuses it again). It does not change Status.
	Failed int64 `json:"failed,omitempty"`
}

// handleHealth reports the default tenant's accuracy health. Without
// an auditor it is a plain liveness "ok". With one, the latest
// audited cova-err decides ok (200) vs degraded (503); ?fresh=1
// forces an evaluation first so the verdict reflects the current
// window rather than the last stride boundary.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok"}
	if s.wal != nil {
		resp.WAL = &walHealth{Replayed: s.wal.Replayed(), Damaged: s.walDamaged.Load(), Failed: s.walFailed.Load()}
	}
	if s.hot != nil {
		resp.HotKeys = &hotkeysHealth{
			Enabled:       true,
			WindowSeconds: s.hot.Window().Seconds(),
			TopK:          s.hot.K(),
		}
	}
	if s.audit != nil {
		if r.URL.Query().Get("fresh") != "" {
			if !s.acquire(w, s.def) {
				return
			}
			s.audit.Evaluate(func(t float64) *mat.Dense { return s.def.Raw().Query(t) })
			s.def.Release()
		}
		st := s.audit.Status()
		resp.Audit, resp.Detail = true, &st
		if st.Degraded {
			resp.Status = "degraded"
		}
	}
	if resp.WAL != nil && resp.WAL.Damaged {
		resp.Status = "degraded"
	}
	if resp.Status == "degraded" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}
