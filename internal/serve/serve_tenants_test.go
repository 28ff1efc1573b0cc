package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swsketch/internal/core"
	"swsketch/internal/registry"
	"swsketch/internal/window"
)

// newTenantServer builds a server whose registry evicts to dir with a
// controllable clock, for evict/restore-over-HTTP tests.
func newTenantServer(t *testing.T, ropts ...registry.Option) (*httptest.Server, *Server) {
	t.Helper()
	treg, err := registry.New(ropts...)
	if err != nil {
		t.Fatal(err)
	}
	sk := core.NewLMFD(window.Seq(100), 3, 8, 4)
	s := NewServer(sk, 3, WithRegistry(treg))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func doReq(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewBufferString(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const lmTenantCfg = `{"framework":"lm-fd","window":"sequence","size":64,"d":3,"ell":8,"b":4}`

func TestTenantCRUD(t *testing.T) {
	ts, _ := newTenantServer(t)

	// Create.
	resp := doReq(t, "PUT", ts.URL+"/v1/tenants/alpha", lmTenantCfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var info tenantInfoResponse
	decode(t, resp, &info)
	if info.ID != "alpha" || info.Algorithm != "LM-FD" || info.Dimension != 3 || !info.Resident {
		t.Fatalf("create response %+v", info)
	}
	if info.Config == nil || info.Config.Framework != "lm-fd" {
		t.Fatalf("create response lacks config: %+v", info)
	}

	// Duplicate → 409 conflict.
	resp = doReq(t, "PUT", ts.URL+"/v1/tenants/alpha", lmTenantCfg)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status %d", resp.StatusCode)
	}
	var er errorResponse
	decode(t, resp, &er)
	if er.Error.Code != CodeConflict {
		t.Fatalf("duplicate create code %q", er.Error.Code)
	}

	// Bad config → 400 invalid_argument.
	resp = doReq(t, "PUT", ts.URL+"/v1/tenants/bad", `{"framework":"nope","size":10,"d":3}`)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("bad config: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Bad ID charset → 400.
	resp = doReq(t, "PUT", ts.URL+"/v1/tenants/sp%20ace", lmTenantCfg)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("bad id: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Reserved ID → 400.
	resp = doReq(t, "PUT", ts.URL+"/v1/tenants/default", lmTenantCfg)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || !strings.Contains(er.Error.Message, "reserved") {
		t.Fatalf("reserved id: status %d message %q", resp.StatusCode, er.Error.Message)
	}

	// List: default + alpha, sorted.
	resp = doReq(t, "GET", ts.URL+"/v1/tenants", "")
	var list tenantListResponse
	decode(t, resp, &list)
	if len(list.Tenants) != 2 || list.Tenants[0].ID != "alpha" || list.Tenants[1].ID != "default" {
		t.Fatalf("list %+v", list)
	}
	if !list.Tenants[1].Pinned {
		t.Fatal("default tenant not pinned in list")
	}

	// Info.
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/alpha", "")
	decode(t, resp, &info)
	if info.ID != "alpha" || info.Updates != 0 {
		t.Fatalf("info %+v", info)
	}

	// Unknown tenant → 404.
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/ghost", "")
	decode(t, resp, &er)
	if resp.StatusCode != 404 || er.Error.Code != CodeNotFound {
		t.Fatalf("unknown info: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Delete.
	resp = doReq(t, "DELETE", ts.URL+"/v1/tenants/alpha", "")
	if resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doReq(t, "DELETE", ts.URL+"/v1/tenants/alpha", "")
	decode(t, resp, &er)
	if resp.StatusCode != 404 {
		t.Fatalf("re-delete status %d", resp.StatusCode)
	}

	// The default tenant cannot be deleted.
	resp = doReq(t, "DELETE", ts.URL+"/v1/tenants/default", "")
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("delete default: status %d code %q", resp.StatusCode, er.Error.Code)
	}
}

func TestTenantIngestAndQuery(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v1/tenants/a", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v1/tenants/b", lmTenantCfg).Body.Close()

	// Ingest different streams into a and b.
	for i := 0; i < 30; i++ {
		body := fmt.Sprintf(`{"updates":[{"row":[%d,1,0],"t":%d}]}`, i%3, i)
		resp := postJSON(t, ts.URL+"/v1/tenants/a/ingest", body)
		if resp.StatusCode != 200 {
			t.Fatalf("ingest a status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/tenants/b/ingest", `{"updates":[{"row":[5,5,5],"t":0}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("ingest b status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Tenant clocks are independent: a's clock is at 29, b's at 0.
	var ar approximationResponse
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/a/approximation", "")
	decode(t, resp, &ar)
	if ar.T != 29 || len(ar.Rows) == 0 {
		t.Fatalf("a approximation t=%v rows=%d", ar.T, len(ar.Rows))
	}
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/b/approximation", "")
	decode(t, resp, &ar)
	if ar.T != 0 {
		t.Fatalf("b approximation t=%v", ar.T)
	}

	// Per-tenant stats carry the tenant fields.
	var st tenantStatsResponse
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/a/stats", "")
	decode(t, resp, &st)
	if st.Tenant != "a" || st.Updates != 30 || st.Algorithm != "LM-FD" || !st.Resident {
		t.Fatalf("a stats %+v", st)
	}

	// PCA works per tenant.
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/a/pca?k=2", "")
	var pr pcaResponse
	decode(t, resp, &pr)
	if len(pr.Components) == 0 {
		t.Fatalf("a pca %+v", pr)
	}

	// Tenant health does not require residency.
	var th tenantHealthResponse
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/a/health", "")
	decode(t, resp, &th)
	if th.Status != "ok" || th.Tenant != "a" || th.Updates != 30 {
		t.Fatalf("a health %+v", th)
	}

	// Ingest into an unknown tenant → 404.
	resp = postJSON(t, ts.URL+"/v1/tenants/ghost/ingest", `{"updates":[{"row":[1,2,3],"t":0}]}`)
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != 404 || er.Error.Code != CodeNotFound {
		t.Fatalf("ghost ingest: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Regressing timestamps rejected with the tenant's own clock.
	resp = postJSON(t, ts.URL+"/v1/tenants/a/ingest", `{"updates":[{"row":[1,2,3],"t":5}]}`)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || !strings.Contains(er.Error.Message, "precedes") {
		t.Fatalf("regressing ingest: status %d message %q", resp.StatusCode, er.Error.Message)
	}
}

// TestDefaultTenantAlias verifies the legacy routes and the
// /v1/tenants/default routes address the same sketch.
func TestDefaultTenantAlias(t *testing.T) {
	ts, _ := newTenantServer(t)
	postJSON(t, ts.URL+"/v1/ingest", `{"updates":[{"row":[1,2,3],"t":4}]}`).Body.Close()

	var legacy, alias approximationResponse
	resp := doReq(t, "GET", ts.URL+"/v1/approximation", "")
	decode(t, resp, &legacy)
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/default/approximation", "")
	decode(t, resp, &alias)
	if legacy.T != alias.T || len(legacy.Rows) != len(alias.Rows) {
		t.Fatalf("alias mismatch: legacy %+v alias %+v", legacy, alias)
	}

	// Ingest through the alias advances the legacy clock too.
	postJSON(t, ts.URL+"/v1/tenants/default/ingest", `{"updates":[{"row":[0,1,0],"t":9}]}`).Body.Close()
	var st statsResponse
	resp = doReq(t, "GET", ts.URL+"/v1/stats", "")
	decode(t, resp, &st)
	if st.Updates != 2 || st.LastT != 9 {
		t.Fatalf("stats after alias ingest %+v", st)
	}
}

func TestBulkIngest(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v1/tenants/a", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v1/tenants/b", lmTenantCfg).Body.Close()

	body := `{"tenants":[
		{"id":"a","updates":[{"row":[1,0,0],"t":1},{"row":[0,1,0],"t":2}]},
		{"id":"b","updates":[{"row":[2,2,2],"t":7}]},
		{"id":"ghost","updates":[{"row":[1,1,1],"t":1}]},
		{"id":"a","updates":[{"row":[9,9,9],"t":0}]}
	]}`
	resp := postJSON(t, ts.URL+"/v1/ingest/bulk", body)
	if resp.StatusCode != 200 {
		t.Fatalf("bulk status %d", resp.StatusCode)
	}
	var br bulkIngestResponse
	decode(t, resp, &br)
	if len(br.Results) != 4 {
		t.Fatalf("bulk results %+v", br)
	}
	if br.Results[0].Accepted != 2 || br.Results[0].LastT != 2 || br.Results[0].Error != nil {
		t.Fatalf("bulk a %+v", br.Results[0])
	}
	if br.Results[1].Accepted != 1 || br.Results[1].LastT != 7 {
		t.Fatalf("bulk b %+v", br.Results[1])
	}
	if br.Results[2].Error == nil || br.Results[2].Error.Code != CodeNotFound {
		t.Fatalf("bulk ghost %+v", br.Results[2])
	}
	// The regressing batch fails without undoing the first one.
	if br.Results[3].Error == nil || br.Results[3].Error.Code != CodeInvalidArgument {
		t.Fatalf("bulk regress %+v", br.Results[3])
	}

	// Empty bulk → 400.
	resp = postJSON(t, ts.URL+"/v1/ingest/bulk", `{"tenants":[]}`)
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("empty bulk: status %d code %q", resp.StatusCode, er.Error.Code)
	}
}

// TestTenantEvictRestoreOverHTTP drives the eviction cycle through the
// public API: a tenant evicted to disk must answer its next query
// bit-identically to its pre-eviction answer, and its health endpoint
// must report the residency transition without forcing a restore.
func TestTenantEvictRestoreOverHTTP(t *testing.T) {
	now := time.Unix(1000, 0)
	var s *Server
	ts, s := newTenantServer(t,
		registry.WithSpillDir(t.TempDir()),
		registry.WithEvictTTL(time.Minute),
		registry.WithClock(func() time.Time { return now }),
	)
	doReq(t, "PUT", ts.URL+"/v1/tenants/cold", lmTenantCfg).Body.Close()
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`, i%3, i)
	}
	b.WriteString("]}")
	postJSON(t, ts.URL+"/v1/tenants/cold/ingest", b.String()).Body.Close()

	before, err := io.ReadAll(doReq(t, "GET", ts.URL+"/v1/tenants/cold/approximation?t=39", "").Body)
	if err != nil {
		t.Fatal(err)
	}

	// Idle past the TTL, then sweep.
	now = now.Add(time.Hour)
	if n := s.Registry().Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	var th tenantHealthResponse
	resp := doReq(t, "GET", ts.URL+"/v1/tenants/cold/health", "")
	decode(t, resp, &th)
	if th.Resident {
		t.Fatal("health reports resident after eviction")
	}

	// The next query transparently restores and answers identically.
	after, err := io.ReadAll(doReq(t, "GET", ts.URL+"/v1/tenants/cold/approximation?t=39", "").Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("restored tenant's approximation differs from pre-eviction answer")
	}
	resp = doReq(t, "GET", ts.URL+"/v1/tenants/cold/health", "")
	decode(t, resp, &th)
	if !th.Resident || th.Updates != 40 {
		t.Fatalf("health after restore %+v", th)
	}

	// The pinned default tenant never went anywhere.
	var list tenantListResponse
	resp = doReq(t, "GET", ts.URL+"/v1/tenants", "")
	decode(t, resp, &list)
	for _, info := range list.Tenants {
		if info.ID == DefaultTenant && !info.Resident {
			t.Fatal("default tenant evicted")
		}
	}
}

// TestTenantSnapshotRoutes exercises per-tenant snapshot download and
// restore: state moves from one tenant to a fresh one via the API.
func TestTenantSnapshotRoutes(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v1/tenants/src", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v1/tenants/dst", lmTenantCfg).Body.Close()
	postJSON(t, ts.URL+"/v1/tenants/src/ingest",
		`{"updates":[{"row":[1,2,3],"t":1},{"row":[4,5,6],"t":2}]}`).Body.Close()

	snap, err := io.ReadAll(doReq(t, "GET", ts.URL+"/v1/tenants/src/snapshot", "").Body)
	if err != nil || len(snap) == 0 {
		t.Fatalf("snapshot download: %v (%d bytes)", err, len(snap))
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/dst/snapshot", "application/octet-stream",
		bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot restore status %d", resp.StatusCode)
	}
	resp.Body.Close()

	srcB, _ := io.ReadAll(doReq(t, "GET", ts.URL+"/v1/tenants/src/approximation?t=2", "").Body)
	dstB, _ := io.ReadAll(doReq(t, "GET", ts.URL+"/v1/tenants/dst/approximation?t=2", "").Body)
	if !bytes.Equal(srcB, dstB) {
		t.Fatal("restored tenant answers differently from the source")
	}
}

// TestTenantSnapshotUnsupported: an lm-hash tenant has no snapshot
// format, so a download answers 501 unsupported (as documented), not
// 500 internal, on both API versions.
func TestTenantSnapshotUnsupported(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v2/tenants/h",
		`{"framework":"lm-hash","window":"sequence","size":64,"d":3,"ell":8,"b":4}`).Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/h/rows", `{"updates":[{"row":[1,2,3],"t":1}]}`).Body.Close()
	for _, prefix := range []string{"/v2", "/v1"} {
		resp := doReq(t, "GET", ts.URL+prefix+"/tenants/h/snapshot", "")
		if resp.StatusCode != http.StatusNotImplemented {
			resp.Body.Close()
			t.Fatalf("%s lm-hash snapshot: status %d, want 501", prefix, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != CodeUnsupported || !strings.Contains(e.Message, "LM-HASH") {
			t.Fatalf("%s lm-hash snapshot: error %+v", prefix, e)
		}
	}
}

func TestTenantRouteMethodNotAllowed(t *testing.T) {
	ts, _ := newTenantServer(t)
	resp := doReq(t, "PATCH", ts.URL+"/v1/tenants/x", "")
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != http.StatusMethodNotAllowed || er.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("PATCH tenant: status %d code %q", resp.StatusCode, er.Error.Code)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "PUT") || !strings.Contains(allow, "DELETE") {
		t.Fatalf("Allow = %q", allow)
	}
}
