package serve

// Every ingest route funnels into one dense block applied through
// UpdateBatch. These tests pin what that buys: a batch refused by the
// sketch lands no row at all, and the route, the wire encoding, the
// sparse/dense form of each update and the presence of a WAL never
// change the resulting sketch state.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swsketch/internal/binenc"
	"swsketch/internal/wal"
)

// TestDeclaredRBatchAtomic: a batch whose second row breaks the
// declared norm bound R is refused whole — the first row must not
// reach the sketch either.
func TestDeclaredRBatchAtomic(t *testing.T) {
	cases := []struct {
		fw, cfg string
		zero    []string // internals that must stay 0 (or absent)
	}{
		{"di-fd", `{"framework":"di-fd","size":64,"d":2,"ell":4,"levels":3,"r":4}`,
			[]string{"open_rows", "norm_sq_max"}},
		{"ds-fd", `{"framework":"ds-fd","size":64,"d":2,"ell":4,"r":4}`,
			[]string{"frame_mass"}},
	}
	for _, tc := range cases {
		t.Run(tc.fw, func(t *testing.T) {
			ts, done := newTestServer(t)
			defer done()
			if resp := doReq(t, "PUT", ts.URL+"/v2/tenants/x", tc.cfg); resp.StatusCode != http.StatusCreated {
				t.Fatalf("create: status %d", resp.StatusCode)
			}
			resp := postJSON(t, ts.URL+"/v2/tenants/x/rows",
				`{"updates":[{"row":[1,0],"t":0},{"row":[10,0],"t":1}]}`)
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("over-R batch: status %d, want 409", resp.StatusCode)
			}
			if e := decodeError(t, resp); e.Code != CodeConflict || !strings.Contains(e.Message, "exceeds declared R") {
				t.Fatalf("over-R batch: error %+v", e)
			}
			r, err := http.Get(ts.URL + "/v2/tenants/x/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st statsResponse
			decode(t, r, &st)
			if st.Updates != 0 || st.RowsStored != 0 {
				t.Fatalf("refused batch left updates %d, rows_stored %d", st.Updates, st.RowsStored)
			}
			if st.Internals == nil {
				t.Fatal("stats carry no internals")
			}
			for _, k := range tc.zero {
				if v := st.Internals[k]; v != 0 {
					t.Fatalf("refused batch left internals[%q] = %v", k, v)
				}
			}
			// The refusal is clean: the in-bound row alone is accepted.
			if resp := postJSON(t, ts.URL+"/v2/tenants/x/rows",
				`{"updates":[{"row":[1,0],"t":0}]}`); resp.StatusCode != 200 {
				t.Fatalf("in-bound row after refusal: status %d", resp.StatusCode)
			}
		})
	}
}

// Equivalence fixture: tenants of three deterministic frameworks, fed
// the same rows over different routes and encodings.
var equivFrameworks = map[string]string{
	"lm-fd":  `{"framework":"lm-fd","size":48,"d":6,"ell":4,"b":2}`,
	"ds-fd":  `{"framework":"ds-fd","size":48,"d":6,"ell":4}`,
	"lm-amm": `{"framework":"lm-amm","size":48,"d":6,"d_b":2,"ell":4,"b":2}`,
}

const (
	equivRows  = 180
	equivBatch = 12
)

// equivRow is row i of the fixture stream: varied values with about a
// third of the entries zero, so sparse updates are genuinely sparse.
func equivRow(i int) []float64 {
	row := make([]float64, 6)
	for j := range row {
		if (i+2*j)%3 == 0 {
			continue
		}
		row[j] = float64((i*7+j*13)%11) - 4.5 + 0.25*float64(j)
	}
	return row
}

// updateJSON renders row i as a JSON update, sparse (non-zeros only)
// or dense.
func updateJSON(i int, sparse bool) string {
	row := equivRow(i)
	if !sparse {
		b, _ := json.Marshal(ingestUpdate{Row: row, T: float64(i)})
		return string(b)
	}
	u := ingestUpdate{Idx: []int{}, Val: []float64{}, T: float64(i)}
	for j, v := range row {
		if v != 0 {
			u.Idx = append(u.Idx, j)
			u.Val = append(u.Val, v)
		}
	}
	b, _ := json.Marshal(u)
	return string(b)
}

// updatesJSON renders rows [lo, hi); mixed makes every other update
// sparse.
func updatesJSON(lo, hi int, mixed bool) string {
	parts := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		parts = append(parts, updateJSON(i, mixed && i%2 == 1))
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func wantOK(t *testing.T, what string, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d", what, resp.StatusCode)
	}
	resp.Body.Close()
}

// streamOK posts one stream body and requires every ack to be clean.
func streamOK(t *testing.T, url, contentType string, body []byte) {
	t.Helper()
	resp, acks := streamPost(t, url, contentType, body)
	if resp.StatusCode != 200 || len(acks) == 0 {
		t.Fatalf("stream %s: status %d, %d acks", url, resp.StatusCode, len(acks))
	}
	for _, a := range acks {
		if a.Error != nil {
			t.Fatalf("stream %s: ack %+v", url, a)
		}
	}
}

// feedDense sends every row dense, one batch per /v2 rows request.
func feedDense(t *testing.T, base, id string) {
	for lo := 0; lo < equivRows; lo += equivBatch {
		wantOK(t, "dense rows", postJSON(t, base+"/v2/tenants/"+id+"/rows",
			`{"updates":`+updatesJSON(lo, lo+equivBatch, false)+`}`))
	}
}

// feedMixed sends the same batches half sparse, rotating through the
// single-tenant routes, both bulk routes and an NDJSON stream.
func feedMixed(t *testing.T, base, id string) {
	for k, lo := 0, 0; lo < equivRows; k, lo = k+1, lo+equivBatch {
		hi := lo + equivBatch
		switch k % 5 {
		case 0:
			wantOK(t, "v1 rows", postJSON(t, base+"/v1/tenants/"+id+"/ingest",
				`{"updates":`+updatesJSON(lo, hi, true)+`}`))
		case 1:
			wantOK(t, "v2 rows", postJSON(t, base+"/v2/tenants/"+id+"/rows",
				`{"updates":`+updatesJSON(lo, hi, true)+`}`))
		case 2:
			wantOK(t, "v1 bulk", postJSON(t, base+"/v1/ingest/bulk",
				`{"tenants":[{"id":"`+id+`","updates":`+updatesJSON(lo, hi, true)+`}]}`))
		case 3:
			wantOK(t, "v2 bulk", postJSON(t, base+"/v2/rows",
				`{"tenants":[{"id":"`+id+`","updates":`+updatesJSON(lo, hi, true)+`}]}`))
		case 4:
			var b strings.Builder
			for i := lo; i < hi; i++ {
				b.WriteString(updateJSON(i, i%2 == 1) + "\n")
			}
			b.WriteString("\n")
			streamOK(t, base+"/v2/tenants/"+id+"/stream", ContentTypeNDJSON, []byte(b.String()))
		}
	}
}

// feedFrames sends the same batches as binary frames on one stream.
func feedFrames(t *testing.T, base, id string) {
	var body []byte
	for lo := 0; lo < equivRows; lo += equivBatch {
		rows := make([][]float64, 0, equivBatch)
		times := make([]float64, 0, equivBatch)
		for i := lo; i < lo+equivBatch; i++ {
			rows = append(rows, equivRow(i))
			times = append(times, float64(i))
		}
		body = append(body, encodeFrame(rows, times)...)
	}
	streamOK(t, base+"/v2/tenants/"+id+"/stream", ContentTypeFrames, body)
}

// TestIngestPathEquivalence: dense JSON, mixed sparse/dense JSON over
// every JSON route, and binary frames leave byte-identical snapshots,
// with and without a WAL; with one, a server recovered from the log
// matches too.
func TestIngestPathEquivalence(t *testing.T) {
	feeds := []struct {
		name string
		feed func(t *testing.T, base, id string)
	}{{"dense", feedDense}, {"mixed", feedMixed}, {"frames", feedFrames}}
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			dir := t.TempDir()
			var opts []Option
			var l *wal.Log
			if withWAL {
				var err error
				l, err = wal.Open(dir, wal.WithShards(2), wal.WithSyncInterval(0))
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, WithWAL(l))
			}
			s := NewServer(newSketch(3), 3, opts...)
			if _, err := s.RecoverWAL(); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for fw, cfg := range equivFrameworks {
				for _, f := range feeds {
					id := fw + "." + f.name
					if resp := doReq(t, "PUT", ts.URL+"/v2/tenants/"+id, cfg); resp.StatusCode != http.StatusCreated {
						t.Fatalf("create %s: status %d", id, resp.StatusCode)
					}
					f.feed(t, ts.URL, id)
				}
			}
			snaps := map[string][]byte{}
			for fw := range equivFrameworks {
				ref := getBytes(t, ts.URL+"/v2/tenants/"+fw+".dense/snapshot")
				snaps[fw] = ref
				for _, f := range feeds[1:] {
					got := getBytes(t, ts.URL+"/v2/tenants/"+fw+"."+f.name+"/snapshot")
					if !bytes.Equal(got, ref) {
						t.Errorf("%s: %s snapshot differs from all-dense feeding", fw, f.name)
					}
				}
			}
			if !withWAL {
				return
			}
			ts.Close()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, ts2, _ := walServer(t, dir)
			for fw, ref := range snaps {
				for _, f := range feeds {
					got := getBytes(t, ts2.URL+"/v2/tenants/"+fw+"."+f.name+"/snapshot")
					if !bytes.Equal(got, ref) {
						t.Errorf("%s: %s snapshot differs after WAL recovery", fw, f.name)
					}
				}
			}
		})
	}
}

// FuzzDecodeFrame: the binary frame decoder never panics, and every
// frame it accepts yields exactly the n rows of length d its header
// claims, with one timestamp each.
func FuzzDecodeFrame(f *testing.F) {
	valid := encodeFrame([][]float64{{1, 2, 3}, {4, 5, 6}}, []float64{1, 2})[4:]
	f.Add(valid, 3)
	header := func(n, d int) []byte {
		w := binenc.NewWriter()
		w.Int(n)
		w.Int(d)
		return w.Bytes()
	}
	f.Add(header(0, 3), 3)                                  // n = 0
	f.Add(valid, 2)                                         // d mismatch
	f.Add(append(header(1<<30, 3), make([]byte, 64)...), 3) // huge n, short body
	f.Add(append(append([]byte{}, valid...), 0, 0, 0), 3)   // trailing bytes
	f.Fuzz(func(t *testing.T, payload []byte, d int) {
		if d < 1 || d > 64 {
			return
		}
		rows, times, err := decodeFrame(payload, d)
		if err != nil {
			return
		}
		r := binenc.NewReader(payload)
		n := r.Int()
		if n < 1 || len(rows) != n || len(times) != n {
			t.Fatalf("accepted frame claims %d rows, decoded %d rows and %d times", n, len(rows), len(times))
		}
		for i, row := range rows {
			if len(row) != d {
				t.Fatalf("row %d has length %d, want %d", i, len(row), d)
			}
		}
	})
}
