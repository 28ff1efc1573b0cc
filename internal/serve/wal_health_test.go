package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestWALHealthShowsFailedReplay logs a block the sketch refuses (over
// a di-fd tenant's declared R: the WAL append precedes the sketch's
// refusal), restarts on the same log, and expects health to count the
// record replay could not apply — without turning the status degraded.
func TestWALHealthShowsFailedReplay(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir)
	cfg := `{"framework":"di-fd","size":64,"d":2,"ell":4,"levels":3,"r":4}`
	resp := doReq(t, "PUT", ts.URL+"/v2/tenants/x", cfg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v2/tenants/x/rows", `{"updates":[{"row":[10,0],"t":0}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("over-R ingest: status %d, want 409", resp.StatusCode)
	}
	if body := string(getBytes(t, ts.URL+"/v2/health")); strings.Contains(body, `"failed"`) {
		t.Fatalf("live server reports replay failures: %s", body)
	}

	_, ts2, st := walServer(t, dir)
	if st.Failed != 1 {
		t.Fatalf("replay stats %+v, want 1 failed record", st)
	}
	for _, path := range []string{"/v2/health", "/v1/health"} {
		var h struct {
			Status string `json:"status"`
			WAL    struct {
				Failed int64 `json:"failed"`
			} `json:"wal"`
		}
		if err := json.Unmarshal(getBytes(t, ts2.URL+path), &h); err != nil {
			t.Fatal(err)
		}
		if h.WAL.Failed != 1 || h.Status != "ok" {
			t.Fatalf("%s: status %q, wal.failed %d; want ok with 1", path, h.Status, h.WAL.Failed)
		}
	}
}
