package main

// The traced replay. It re-runs the untraced run's operation sequence
// in-process, one goroutine per connection as before, by composing the
// layers' public functions the way the serve layer does: binenc frame
// decode, registry New/Create and Tenant Acquire/Commit/Release, the
// WAL's Open/AppendRows, the sketches' UpdateBatch and Query,
// pca.Compute and the hot-key sidecar. Each call gets a span. The same
// replay runs once more with spans off; the wall-time difference is the
// tracing overhead.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"swsketch/internal/binenc"
	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/obs/hh"
	"swsketch/internal/pca"
	"swsketch/internal/registry"
	"swsketch/internal/wal"
)

// fwNames indexes span framework tags; 0 is "no tenant".
var fwNames = []string{"", "swr", "swor", "swor-all", "lm-fd", "lm-hash", "di-fd", "ds-fd", "lm-amm", "di-amm"}

func fwIndex(fw string) uint8 {
	for i, n := range fwNames {
		if n == fw {
			return uint8(i)
		}
	}
	return 0
}

// fwAgg is the end-of-replay Stats() view of one framework's tenants.
type fwAgg struct {
	tenants    int
	blocks     float64 // LM blocks, DS-FD frames or DI occupancy
	rowsStored float64
	shrinks    float64
	windowRows float64 // rows the live structure covers
}

type replayResult struct {
	wall  time.Duration
	rows  int
	recs  []*recorder
	fw    map[string]*fwAgg
	spans *spanSummary
}

// replayEnv is the in-process stack a replay drives.
type replayEnv struct {
	w    *workload
	reg  *registry.Registry
	wal  *wal.Log
	hot  *hh.Sidecar
	stop chan struct{}
	wg   sync.WaitGroup
}

// noReplay is the WAL applier for a fresh log directory: there is
// nothing to replay, but the log only takes appends after a replay.
type noReplay struct{}

func (noReplay) Create(string, []byte) (bool, error) { return false, nil }
func (noReplay) Rows(string, uint64, [][]float64, []float64) (bool, error) {
	return false, nil
}
func (noReplay) Snapshot(string, uint64, float64, bool, []byte) (bool, error) {
	return false, nil
}
func (noReplay) Delete(string) (bool, error) { return false, nil }

// newReplayEnv builds the stack with swserve's production settings.
func newReplayEnv(w *workload, dir string) (*replayEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	e := &replayEnv{w: w, stop: make(chan struct{})}
	e.hot = hh.New(hh.Config{Window: time.Minute, K: 16, Width: 1024, Depth: 4})
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.WithSyncInterval(5*time.Millisecond))
	if err != nil {
		return nil, err
	}
	if _, err := l.Replay(noReplay{}); err != nil {
		l.Close()
		return nil, err
	}
	l.SetAppendHook(func(tenant string, _, bytes int) { e.hot.ObserveWAL(tenant, bytes) })
	e.wal = l
	opts := []registry.Option{
		registry.WithTouchHook(e.hot.Touch),
		registry.WithEvictHook(func(id string, spilled bool) {
			l.Released(id)
			if !spilled {
				e.hot.Forget(id)
			}
		}),
	}
	ttl := time.Duration(0)
	if w.needsSpill() {
		ttl = 2 * time.Second
		opts = append(opts, registry.WithMaxTenants(1000), registry.WithEvictTTL(ttl),
			registry.WithSpillDir(filepath.Join(dir, "spill")))
	}
	if e.reg, err = registry.New(opts...); err != nil {
		l.Close()
		return nil, err
	}
	if ttl > 0 {
		// swserve's sweeper cadence: a quarter of the TTL, at least 1s.
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			tick := time.NewTicker(max(ttl/4, time.Second))
			defer tick.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-tick.C:
					e.reg.Sweep()
				}
			}
		}()
	}
	return e, nil
}

func (e *replayEnv) close() error {
	close(e.stop)
	e.wg.Wait()
	return e.wal.Close()
}

// runReplay performs one replay of the measured operations.
func runReplay(w *workload, opsDone []int, dir string, traced bool) (*replayResult, error) {
	e, err := newReplayEnv(w, dir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	for _, t := range w.tenants {
		if err := e.create(nil, t); err != nil {
			return nil, err
		}
	}
	gens := make([]*gen, w.conns)
	for c := range gens {
		gens[c] = newGen(w, c)
		for _, o := range gens[c].prefill() {
			if _, err := e.apply(nil, o, 0); err != nil {
				return nil, fmt.Errorf("prefill: %w", err)
			}
		}
	}
	res := &replayResult{recs: make([]*recorder, w.conns), fw: map[string]*fwAgg{}}
	errs := make([]error, w.conns)
	rows := make([]int, w.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		var rec *recorder
		if traced {
			rec = &recorder{conn: c, t0: start}
			res.recs[c] = rec
		}
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			g := gens[c]
			for i := 0; i < opsDone[c]; i++ {
				o, ok := g.nextOp()
				if !ok {
					break
				}
				n, err := e.apply(rec, o, int64(c)<<40|int64(i))
				if err != nil {
					errs[c] = err
					return
				}
				rows[c] += n
			}
		}(c, rec)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for c := range errs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		res.rows += rows[c]
	}
	if traced {
		res.spans = summarize(res.recs)
	}
	for _, t := range w.tenants {
		if err := e.statsOf(t, res.fw); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// statsOf folds one tenant's end-of-replay Stats() into its framework.
func (e *replayEnv) statsOf(t *tenant, fws map[string]*fwAgg) error {
	rt, ok := e.reg.Get(t.id)
	if !ok {
		return fmt.Errorf("replay lost tenant %s", t.id)
	}
	if err := rt.Acquire(); err != nil {
		return err
	}
	defer rt.Release()
	a := fws[t.fw()]
	if a == nil {
		a = &fwAgg{}
		fws[t.fw()] = a
	}
	a.tenants++
	a.rowsStored += float64(rt.Raw().RowsStored())
	a.windowRows += float64(min(int(rt.Updates()), t.windowRows()))
	if in, ok := rt.Raw().(core.Introspector); ok {
		st := in.Stats()
		for _, k := range []string{"blocks", "frames", "completed_blocks"} {
			if v, ok := st[k]; ok {
				a.blocks += v
				break
			}
		}
		a.shrinks += st["fd_shrinks"]
	}
	return nil
}

// create admits a tenant the way PUT /v2/tenants/{id} does.
func (e *replayEnv) create(rec *recorder, t *tenant) error {
	s := rec.begin(spCreate, fwIndex(t.fw()))
	rt, err := e.reg.Create(t.id, t.cfg)
	rec.end(s, 0)
	if err != nil {
		return fmt.Errorf("create %s: %w", t.id, err)
	}
	cfgJSON, err := json.Marshal(rt.Config())
	if err != nil {
		return err
	}
	s = rec.begin(spWAL, fwIndex(t.fw()))
	_, err = e.wal.AppendCreate(t.id, cfgJSON)
	rec.end(s, 0)
	return err
}

// jsonUpdate mirrors the serve layer's ingest update shape.
type jsonUpdate struct {
	Row []float64 `json:"row,omitempty"`
	Idx []int     `json:"idx,omitempty"`
	Val []float64 `json:"val,omitempty"`
	T   float64   `json:"t"`
}

// apply runs one operation through the stack and returns the rows it
// ingested.
func (e *replayEnv) apply(rec *recorder, o op, id int64) (int, error) {
	w := e.w
	switch o.kind {
	case opLease, opBlock:
		n := 0
		for bi, b := range o.batches {
			rows, times := w.rows(b)
			frame := encodeFrame(rows, times)[4:]
			rec.beginOp(spIngest, id+int64(bi))
			if err := e.ingestFrame(rec, w.tenants[b.tn], frame); err != nil {
				return n, err
			}
			rec.endOp(b.n)
			n += b.n
		}
		return n, nil
	case opQuery:
		rec.beginOp(spQuery, id)
		err := e.query(rec, w.tenants[o.tn], o.query)
		rec.endOp(0)
		return 0, err
	case opRows:
		b := o.batches[0]
		body := w.rowsBody(b)
		rec.beginOp(spIngest, id)
		s := rec.begin(spJSON, 0)
		var req struct {
			Updates []jsonUpdate `json:"updates"`
		}
		err := decodeStrict(body, &req)
		rec.end(s, 0)
		if err != nil {
			return 0, err
		}
		if err := e.ingestJSON(rec, w.tenants[b.tn], req.Updates); err != nil {
			return 0, err
		}
		s = rec.begin(spEncode, 0)
		_, _ = json.Marshal(struct {
			Accepted int     `json:"accepted"`
			LastT    float64 `json:"last_t"`
		}{b.n, float64(b.k0 + b.n)})
		rec.end(s, 0)
		rec.endOp(b.n)
		return b.n, nil
	case opBulk:
		body := w.bulkBody(o.batches)
		rec.beginOp(spBulk, id)
		s := rec.begin(spJSON, 0)
		var req struct {
			Tenants []struct {
				ID      string       `json:"id"`
				Updates []jsonUpdate `json:"updates"`
			} `json:"tenants"`
		}
		err := decodeStrict(body, &req)
		rec.end(s, 0)
		if err != nil {
			return 0, err
		}
		n := 0
		for i, item := range req.Tenants {
			if err := e.ingestJSON(rec, w.tenants[o.batches[i].tn], item.Updates); err != nil {
				return n, err
			}
			n += len(item.Updates)
		}
		s = rec.begin(spEncode, 0)
		_, _ = json.Marshal(req.Tenants) // the per-item results are of similar size
		rec.end(s, 0)
		rec.endOp(n)
		return n, nil
	case opChurn:
		t := w.tenants[o.tn]
		rec.beginOp(spChurn, id)
		s := rec.begin(spDelete, fwIndex(t.fw()))
		ok := e.reg.Delete(t.id)
		rec.end(s, 0)
		if !ok {
			return 0, fmt.Errorf("churn: no tenant %s", t.id)
		}
		s = rec.begin(spWAL, fwIndex(t.fw()))
		_, _ = e.wal.AppendDelete(t.id)
		rec.end(s, 0)
		err := e.create(rec, t)
		rec.endOp(0)
		return 0, err
	case opReject:
		t := w.tenants[o.tn]
		rec.beginOp(spReject, id)
		s := rec.begin(spJSON, 0)
		var req struct {
			Updates []jsonUpdate `json:"updates"`
		}
		err := decodeStrict(w.rejectBody(o), &req)
		rec.end(s, 0)
		if err != nil {
			return 0, err
		}
		if err := e.ingestJSON(rec, t, req.Updates); err == nil {
			return 0, fmt.Errorf("%s: %s batch was accepted", t.id, o.reject)
		} else if !errors.Is(err, errRefused) {
			return 0, err
		}
		rt, _ := e.reg.Get(t.id)
		s = rec.begin(spAcquire, fwIndex(t.fw()))
		if err := rt.Acquire(); err != nil {
			return 0, err
		}
		rec.end(s, 0)
		got := rt.Updates()
		rt.Release()
		rec.endOp(0)
		if got != uint64(o.expectUpdates) {
			return 0, fmt.Errorf("%s: refused batch changed updates to %d", t.id, got)
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unexpected op %v", o.kind)
}

var errRefused = errors.New("batch refused")

func decodeStrict(body []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// acquire opens a tenant under an acquire span, flagging restores.
func (e *replayEnv) acquire(rec *recorder, t *tenant) (*registry.Tenant, error) {
	rt, ok := e.reg.Get(t.id)
	if !ok {
		return nil, fmt.Errorf("no tenant %s", t.id)
	}
	spilled := !rt.Resident()
	s := rec.begin(spAcquire, fwIndex(t.fw()))
	err := rt.Acquire()
	rec.end(s, 0)
	if spilled {
		rec.mark(s)
	}
	return rt, err
}

// ingestFrame mirrors the stream handler for one binary frame.
func (e *replayEnv) ingestFrame(rec *recorder, t *tenant, payload []byte) error {
	fw := fwIndex(t.fw())
	s := rec.begin(spDecode, fw)
	rows, times, err := decodeFrame(payload, t.cfg.D)
	rec.end(s, len(rows))
	if err != nil {
		return err
	}
	rt, err := e.acquire(rec, t)
	if err != nil {
		return err
	}
	defer func() {
		s := rec.begin(spRelease, fw)
		rt.Release()
		rec.end(s, 0)
	}()
	if err := validate(rt, rows, times); err != nil {
		return err
	}
	return e.commitRows(rec, rt, t, rows, times, nil)
}

// commitRows logs, applies and commits a validated batch (the caller
// holds the tenant). sparse, when set, carries the rows in sparse form
// for the sketch; the WAL always logs them dense.
func (e *replayEnv) commitRows(rec *recorder, rt *registry.Tenant, t *tenant, rows [][]float64, times []float64, sparse []mat.SparseRow) error {
	fw := fwIndex(t.fw())
	s := rec.begin(spWAL, fw)
	_, err := e.wal.AppendRows(t.id, rt.Updates(), rows, times)
	rec.end(s, len(rows))
	if err != nil {
		return err
	}
	sk := rt.Sketch()
	s = rec.begin(spUpdate, fw)
	if sparse == nil {
		sk.UpdateBatch(rows, times)
	} else if su, ok := rt.Raw().(core.SparseUpdater); ok {
		for i, sr := range sparse {
			su.UpdateSparse(sr, times[i])
		}
	} else {
		for i, r := range rows {
			sk.Update(r, times[i])
		}
	}
	rec.end(s, len(rows))
	s = rec.begin(spCommit, fw)
	rt.Commit(len(rows), times[len(times)-1])
	rec.end(s, 0)
	s = rec.begin(spHH, fw)
	e.hot.ObserveIngest(t.id, len(rows), 8*t.cfg.D*len(rows))
	rec.end(s, len(rows))
	return nil
}

// ingestJSON mirrors the JSON ingest handlers for one tenant's batch.
func (e *replayEnv) ingestJSON(rec *recorder, t *tenant, ups []jsonUpdate) error {
	rt, err := e.acquire(rec, t)
	if err != nil {
		return err
	}
	defer func() {
		s := rec.begin(spRelease, fwIndex(t.fw()))
		rt.Release()
		rec.end(s, 0)
	}()
	d := t.cfg.D
	rows := make([][]float64, len(ups))
	times := make([]float64, len(ups))
	var sparse []mat.SparseRow
	for i, u := range ups {
		times[i] = u.T
		if len(u.Idx) > 0 {
			if sparse == nil {
				sparse = make([]mat.SparseRow, len(ups))
			}
			sparse[i] = mat.SparseRow{Idx: u.Idx, Val: u.Val}
			rows[i] = sparse[i].Dense(d)
		} else {
			rows[i] = u.Row
		}
	}
	if err := validate(rt, rows, times); err != nil {
		s := rec.begin(spHH, fwIndex(t.fw()))
		e.hot.ObserveEvent(t.id)
		rec.end(s, 0)
		return err
	}
	return e.commitRows(rec, rt, t, rows, times, sparse)
}

// validate applies the serve layer's admission checks: timestamps in
// order, the tenant's dimension, finite values.
func validate(rt *registry.Tenant, rows [][]float64, times []float64) error {
	prev, seen := rt.Clock()
	for i, r := range rows {
		if seen && times[i] < prev {
			return fmt.Errorf("%w: update %d: timestamp %v precedes %v", errRefused, i, times[i], prev)
		}
		if len(r) != rt.D() {
			return fmt.Errorf("%w: update %d: row length %d, want %d", errRefused, i, len(r), rt.D())
		}
		for _, v := range r {
			if v != v || v > 1e308 || v < -1e308 {
				return fmt.Errorf("%w: update %d: non-finite value", errRefused, i)
			}
		}
		prev, seen = times[i], true
	}
	return nil
}

// query mirrors the approximation, amm and pca handlers.
func (e *replayEnv) query(rec *recorder, t *tenant, kind string) error {
	fw := fwIndex(t.fw())
	rt, err := e.acquire(rec, t)
	if err != nil {
		return err
	}
	qt, _ := rt.Clock()
	s := rec.begin(spQueryCore, fw)
	var b *mat.Dense
	var product [][]float64
	if kind == "amm" {
		product = rt.Raw().(core.PairedWindowSketch).AmmApproximation(qt)
	} else {
		b = rt.Sketch().Query(qt)
	}
	rec.end(s, 0)
	s = rec.begin(spRelease, fw)
	rt.Release()
	rec.end(s, 0)
	var resp interface{}
	switch kind {
	case "amm":
		resp = product
	case "pca":
		s = rec.begin(spPCA, fw)
		res := pca.Compute(b, 3)
		rec.end(s, 0)
		comps := make([][]float64, res.Components.Rows())
		for i := range comps {
			comps[i] = res.Components.RowCopy(i)
		}
		resp = [2]interface{}{comps, res.Explained}
	default:
		rows := make([][]float64, b.Rows())
		for i := range rows {
			rows[i] = b.RowCopy(i)
		}
		resp = rows
	}
	s = rec.begin(spEncode, fw)
	_, err = json.Marshal(resp)
	rec.end(s, 0)
	return err
}

// decodeFrame parses one binary frame payload the way the stream
// handler does, with the same bounds checks before allocating.
func decodeFrame(payload []byte, wantD int) ([][]float64, []float64, error) {
	r := binenc.NewReader(payload)
	n, d := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("frame header: %w", err)
	}
	if n < 1 || d != wantD {
		return nil, nil, fmt.Errorf("frame claims %d rows of dimension %d, want %d", n, d, wantD)
	}
	if n > r.Rest()/8 || n*(d+1) > r.Rest()/8 {
		return nil, nil, fmt.Errorf("frame claims %d×%d block, only %d bytes follow", n, d, r.Rest())
	}
	times := make([]float64, n)
	for i := range times {
		times[i] = r.F64()
	}
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.F64()
		}
		rows[i] = row
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("frame body: %w", err)
	}
	if r.Rest() != 0 {
		return nil, nil, fmt.Errorf("frame has %d trailing bytes", r.Rest())
	}
	return rows, times, nil
}
