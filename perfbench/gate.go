package main

// The correctness gate. It runs against the live server after the
// measured phase and fails the run instead of reporting numbers when:
//   - a tenant's committed update count differs from the generator's
//     accepted count;
//   - a sampled tenant's answer breaks the conformance error bound
//     against an exact window oracle (window.Exact; AmmErr for paired
//     tenants), at the end of the run and, on monitor, at each step of
//     feeding the tenant on (see slideSteps);
//   - a deterministic tenant's snapshot differs from the snapshot of
//     the same input re-run in-process from the same seed.
// Refused batches are checked inline as they happen (client.go).

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/window"
)

// digestMaxRows bounds the input re-run for a digest check so the gate
// stays cheap; the largest tenant of each deterministic framework under
// the cap is checked.
const digestMaxRows = 40000

type gateResult struct {
	problems    []string
	errRatioMax float64
	errRatios   []float64 // per checked answer: measured error / bound
	errSamples  []string
	digests     int
	// sketchRows is the mean rows_stored over tenants whose window has
	// filled, averaged per framework and then over frameworks: space
	// per sketch at steady state, which grows neither with how many
	// cold tenants a closed-loop run reached nor with which frameworks
	// the seed's hot set happened to favour.
	sketchRows   float64
	expectedRows []int // per tenant: expected committed updates
}

func (g *gateResult) problem(format string, args ...interface{}) {
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// expectedUpdates regenerates each connection's completed operations
// and returns every tenant's committed row count in its current epoch.
func expectedUpdates(w *workload, opsDone []int) []int {
	out := make([]int, len(w.tenants))
	for c := 0; c < w.conns; c++ {
		g := newGen(w, c)
		g.prefill()
		for i := 0; i < opsDone[c]; i++ {
			if _, ok := g.nextOp(); !ok {
				break
			}
		}
		for _, tn := range g.owned {
			out[tn] = g.next[tn]
		}
	}
	return out
}

// runGate checks the server's state after the measured phase.
func runGate(base string, w *workload, opsDone []int) *gateResult {
	res := &gateResult{expectedRows: expectedUpdates(w, opsDone)}
	c := newConn(0, base, w)
	defer c.close()

	// Every tenant's committed count, from the lock-free tenant list
	// (it does not restore spilled tenants).
	code, out, err := c.do("GET", "/v2/tenants", "", nil)
	var list struct {
		Tenants []struct {
			ID      string `json:"id"`
			Rows    int    `json:"rows_stored"`
			Updates uint64 `json:"updates"`
		} `json:"tenants"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(out, &list) != nil {
		res.problem("list tenants: status %d err %v", code, err)
		return res
	}
	byID := map[string]int{}
	for i, t := range w.tenants {
		byID[t.id] = i
	}
	seen := 0
	fullRows, full := map[string]float64{}, map[string]int{}
	for _, it := range list.Tenants {
		tn, ok := byID[it.ID]
		if !ok {
			continue
		}
		seen++
		if t := w.tenants[tn]; res.expectedRows[tn] >= t.windowRows() {
			fullRows[t.fw()] += float64(it.Rows)
			full[t.fw()]++
		}
		if it.Updates != uint64(res.expectedRows[tn]) {
			res.problem("%s: updates %d, generator accepted %d", it.ID, it.Updates, res.expectedRows[tn])
		}
	}
	if seen != len(w.tenants) {
		res.problem("tenant list has %d of %d fleet tenants", seen, len(w.tenants))
	}
	for _, fw := range fwNames {
		if n := full[fw]; n > 0 {
			res.sketchRows += fullRows[fw] / float64(n) / float64(len(full))
		}
	}

	// Digests first: the error checks on monitor feed its tenants on
	// past the measured input.
	errSample, digestSample := sampleTenants(w, res.expectedRows)
	for _, tn := range digestSample {
		res.checkDigest(c, w, opsDone, tn)
	}
	for _, tn := range errSample {
		res.checkError(c, w, opsDone, tn)
	}
	return res
}

// errSamplesPerFW is how many tenants per framework the error check
// reads. The mean and max over many tenants move less with the data a
// seed draws than over a few: on fleet-json, six per framework left the
// mean's spread over five seeds at 0.11, twenty at 0.05.
const errSamplesPerFW = 20

// sampleTenants picks, per framework, the errSamplesPerFW tenants with
// the most rows for the error check, and per deterministic framework
// the largest tenant under digestMaxRows for the digest check.
func sampleTenants(w *workload, updates []int) (errSample, digestSample []int) {
	byFW := map[string][]int{}
	for _, t := range w.tenants {
		if updates[t.idx] > 0 {
			byFW[t.fw()] = append(byFW[t.fw()], t.idx)
		}
	}
	fws := make([]string, 0, len(byFW))
	for fw := range byFW {
		fws = append(fws, fw)
	}
	sort.Strings(fws)
	for _, fw := range fws {
		ts := byFW[fw]
		sort.SliceStable(ts, func(i, j int) bool { return updates[ts[i]] > updates[ts[j]] })
		errSample = append(errSample, ts[:min(errSamplesPerFW, len(ts))]...)
		if deterministic[fw] {
			for _, tn := range ts {
				if updates[tn] <= digestMaxRows {
					digestSample = append(digestSample, tn)
					break
				}
			}
		}
	}
	return errSample, digestSample
}

// Monitor's sixteen tenants give the end-of-run check one window each,
// so a mean over those alone moves with the rows a seed happens to put
// in them. On monitor the error check therefore feeds each unpaired
// sampled tenant on for slideSteps more steps of slideBlocks of the
// run's blocks, as one frame stream per step, and checks the answer
// after every step: eleven windows per tenant instead of one. Paired
// tenants get the end-of-run check only; the largest one's answer
// takes about a second.
const (
	slideSteps  = 10
	slideBlocks = 16
)

// checkError compares a tenant's served answer with the exact window.
func (g *gateResult) checkError(c *conn, w *workload, opsDone []int, tn int) {
	t := w.tenants[tn]
	want := g.expectedRows[tn]
	if err := c.checkClock(t, want); err != nil {
		g.problem("%v", err)
		return
	}
	ex := window.NewExact(t.cfg.Spec(), t.cfg.D)
	from := want - t.windowRows() - 1
	var last batch
	for _, b := range w.history(t.conn, opsDone[t.conn], tn) {
		last = b
		if b.k0+b.n <= from {
			continue
		}
		rows, times := w.rows(b)
		ex.UpdateBatch(rows, times)
	}
	errv, ok := g.answerError(c, t, ex)
	if !ok {
		return
	}
	g.errSamples = append(g.errSamples, fmt.Sprintf("%s %s err=%.4f bound=%.2f", t.id, t.fw(), errv, conformanceBound[t.fw()]))
	if _, paired := t.paired(); paired || w.name != wlMonitor {
		return
	}

	var st connStats
	slide, worst := make([]float64, 0, slideSteps), 0.0
	for step := 0; step < slideSteps; step++ {
		o := op{kind: opLease, tn: tn}
		for i := 0; i < slideBlocks; i++ {
			b := batch{tn: tn, epoch: last.epoch, k0: want, n: monitorBlockRows}
			want += b.n
			o.batches = append(o.batches, b)
			rows, times := w.rows(b)
			ex.UpdateBatch(rows, times)
		}
		if c.lease(o, &st, false); st.failed > 0 {
			g.problem("%s: feeding on after the run: %v", t.id, st.failures)
			return
		}
		errv, ok := g.answerError(c, t, ex)
		if !ok {
			return
		}
		slide, worst = append(slide, errv), max(worst, errv)
	}
	g.errSamples = append(g.errSamples, fmt.Sprintf("%s %s fed on %d×%d rows: err mean=%.4f max=%.4f over %d windows",
		t.id, t.fw(), slideSteps, slideBlocks*monitorBlockRows, mean(slide), worst, len(slide)))
}

// answerError reads a tenant's current answer, measures its error
// against the exact window ex, and books it against the conformance
// bound. It reports false when the answer could not be read.
func (g *gateResult) answerError(c *conn, t *tenant, ex *window.Exact) (float64, bool) {
	var errv float64
	if dA, ok := t.paired(); ok {
		var r struct {
			Product [][]float64 `json:"product"`
		}
		if err := c.getJSON("/v2/tenants/"+t.id+"/amm", &r); err != nil {
			g.problem("%v", err)
			return 0, false
		}
		errv = ex.AmmErr(dA, denseOf(r.Product, t.cfg.DB))
	} else {
		var r struct {
			Rows [][]float64 `json:"rows"`
		}
		if err := c.getJSON("/v2/tenants/"+t.id+"/approximation", &r); err != nil {
			g.problem("%v", err)
			return 0, false
		}
		errv = ex.CovaErr(denseOf(r.Rows, t.cfg.D))
	}
	bound := conformanceBound[t.fw()]
	ratio := errv / bound
	g.errRatios = append(g.errRatios, ratio)
	if ratio > g.errRatioMax || ratio != ratio {
		g.errRatioMax = ratio
	}
	if !(ratio <= 1) {
		g.problem("%s (%s): error %.4f exceeds the conformance bound %.2f", t.id, t.fw(), errv, bound)
	}
	return errv, true
}

// checkDigest re-runs a deterministic tenant's input in-process and
// compares snapshot digests with the server's.
func (g *gateResult) checkDigest(c *conn, w *workload, opsDone []int, tn int) {
	t := w.tenants[tn]
	code, blob, err := c.do("GET", "/v2/tenants/"+t.id+"/snapshot", "", nil)
	if err != nil || code != http.StatusOK {
		g.problem("%s: snapshot: status %d err %v", t.id, code, err)
		return
	}
	sk, err := t.cfg.Build()
	if err != nil {
		g.problem("%s: build: %v", t.id, err)
		return
	}
	for _, b := range w.history(t.conn, opsDone[t.conn], tn) {
		applyLikeServer(sk, w, b)
	}
	mine, err := sk.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		g.problem("%s: marshal: %v", t.id, err)
		return
	}
	g.digests++
	if a, b := digest(blob), digest(mine); a != b {
		g.problem("%s (%s): server snapshot %s differs from the same-seed re-run %s", t.id, t.fw(), a[:16], b[:16])
	}
}

// applyLikeServer feeds a batch the way the serve layer does: dense
// batches through UpdateBatch, sparse ones row by row through the
// sparse path when the sketch has one.
func applyLikeServer(sk core.WindowSketch, w *workload, b batch) {
	rows, times := w.rows(b)
	if !b.sparse {
		sk.UpdateBatch(rows, times)
		return
	}
	su, ok := sk.(core.SparseUpdater)
	for i, r := range rows {
		if ok {
			su.UpdateSparse(sparseOf(r), times[i])
		} else {
			sk.Update(r, times[i])
		}
	}
}

// sparseOf lists a row's non-zeros, as the JSON encoder sends them.
func sparseOf(r []float64) mat.SparseRow {
	var sr mat.SparseRow
	for j, v := range r {
		if v != 0 {
			sr.Idx = append(sr.Idx, j)
			sr.Val = append(sr.Val, v)
		}
	}
	return sr
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func denseOf(rows [][]float64, cols int) *mat.Dense {
	m := mat.NewDense(len(rows), cols)
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func (c *conn) getJSON(path string, v interface{}) error {
	code, out, err := c.do("GET", path, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, code, out)
	}
	return json.Unmarshal(out, v)
}
