package main

// The generator side of the untraced run: one goroutine per
// connection, each with its own single-connection HTTP transport,
// executes its generator's operations against the server and books
// every outcome.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"swsketch/internal/binenc"
)

// connStats is one connection's bookkeeping for the measured phase.
type connStats struct {
	ops       int // generator operations completed
	attempted int
	failed    int
	rows      int // accepted rows
	wireBytes int // ingest request bytes (frames or JSON bodies)
	acks      []float64
	queries   []float64
	lags      []float64
	failures  []string
	lastEnd   time.Time
}

func (st *connStats) fail(format string, args ...interface{}) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

// conn is one generator connection.
type conn struct {
	id     int
	base   string
	w      *workload
	client *http.Client
}

func newConn(id int, base string, w *workload) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{id: id, base: base, w: w, client: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.client.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and returns the status and body.
func (c *conn) do(method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// createTenants PUTs every tenant this connection owns.
func (c *conn) createTenants() error {
	for _, t := range c.w.tenants {
		if t.conn != c.id {
			continue
		}
		if err := c.putTenant(t); err != nil {
			return err
		}
	}
	return nil
}

func (c *conn) putTenant(t *tenant) error {
	body, _ := json.Marshal(t.cfg)
	code, out, err := c.do("PUT", "/v2/tenants/"+t.id, "application/json", body)
	if err != nil {
		return fmt.Errorf("create %s: %w", t.id, err)
	}
	if code != http.StatusCreated {
		return fmt.Errorf("create %s: status %d: %s", t.id, code, out)
	}
	return nil
}

// encodeFrame renders one block in the binary stream framing: a
// little-endian u32 payload length, then binenc Int n, Int d, n×F64
// times and n·d×F64 row-major values.
func encodeFrame(rows [][]float64, times []float64) []byte {
	w := binenc.NewWriter()
	w.Int(len(rows))
	w.Int(len(rows[0]))
	for _, t := range times {
		w.F64(t)
	}
	for _, r := range rows {
		for _, v := range r {
			w.F64(v)
		}
	}
	p := w.Bytes()
	out := make([]byte, 4, 4+len(p))
	binary.LittleEndian.PutUint32(out, uint32(len(p)))
	return append(out, p...)
}

// ackLine is one stream acknowledgement.
type ackLine struct {
	Accepted int `json:"accepted"`
	Error    *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// checkAck books one block's acknowledgement.
func checkAck(st *connStats, line []byte, want int, t *tenant) {
	var a ackLine
	switch err := json.Unmarshal(line, &a); {
	case err != nil:
		st.fail("%s: bad ack %q", t.id, line)
	case a.Error != nil:
		st.fail("%s: block refused: %s %s", t.id, a.Error.Code, a.Error.Message)
	case a.Accepted != want:
		st.fail("%s: ack accepted %d, want %d", t.id, a.Accepted, want)
	default:
		st.rows += want
	}
}

// lease streams one op's frame blocks to a tenant over a single
// /stream request, keeping up to four blocks in flight. Each block's
// latency runs from its write to its ack.
func (c *conn) lease(o op, st *connStats, record bool) {
	t := c.w.tenants[o.tn]
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", c.base+"/v2/tenants/"+t.id+"/stream", pr)
	if err != nil {
		st.fail("%v", err)
		return
	}
	req.Header.Set("Content-Type", "application/x-swsketch-frames")
	st.attempted += len(o.batches)
	resp, err := c.client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		code := 0
		if resp != nil {
			code = resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		pw.Close()
		st.fail("%s: open stream: status %d err %v", t.id, code, err)
		return
	}
	type sent struct {
		at   time.Time
		rows int
	}
	inflight := make(chan sent, 4) // the pipelining window
	done := make(chan struct{})
	var rs connStats // the ack reader's bookkeeping, merged once it ends
	go func() {
		defer close(done)
		rd := bufio.NewReader(resp.Body)
		for s := range inflight {
			line, err := rd.ReadBytes('\n')
			now := time.Now()
			if err != nil {
				rs.fail("%s: read ack: %v", t.id, err)
				continue
			}
			checkAck(&rs, line, s.rows, t)
			if record {
				rs.acks = append(rs.acks, ms(now.Sub(s.at)))
			}
		}
	}()
	for _, b := range o.batches {
		rows, times := c.w.rows(b)
		frame := encodeFrame(rows, times)
		st.wireBytes += len(frame)
		at := time.Now()
		if _, err := pw.Write(frame); err != nil {
			st.fail("%s: write frame: %v", t.id, err)
			break
		}
		inflight <- sent{at, b.n}
	}
	close(inflight)
	pw.Close()
	<-done
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st.failed += rs.failed
	st.rows += rs.rows
	st.acks = append(st.acks, rs.acks...)
	for _, f := range rs.failures {
		if len(st.failures) < 5 {
			st.failures = append(st.failures, f)
		}
	}
}

// block sends one monitor block as a single-frame stream request.
func (c *conn) block(o op, st *connStats) error {
	t := c.w.tenants[o.tn]
	rows, times := c.w.rows(o.batches[0])
	frame := encodeFrame(rows, times)
	st.wireBytes += len(frame)
	code, out, err := c.do("POST", "/v2/tenants/"+t.id+"/stream", "application/x-swsketch-frames", frame)
	switch {
	case err != nil:
		return err
	case code != http.StatusOK:
		return fmt.Errorf("status %d: %s", code, out)
	}
	var a ackLine
	if err := json.Unmarshal(out, &a); err != nil || a.Error != nil || a.Accepted != o.batches[0].n {
		return fmt.Errorf("bad ack %q", out)
	}
	return nil
}

// query sends one monitor query.
func (c *conn) query(o op) error {
	t := c.w.tenants[o.tn]
	path := "/v2/tenants/" + t.id + "/" + o.query
	if o.query == "pca" {
		path += "?k=3"
	}
	code, out, err := c.do("GET", path, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, code, out)
	}
	return nil
}

// appendUpdate renders one ingest update as JSON.
func appendUpdate(buf []byte, row []float64, t float64, sparse bool) []byte {
	if sparse {
		buf = append(buf, `{"idx":[`...)
		first := true
		for j, v := range row {
			if v == 0 {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(j), 10)
			first = false
		}
		buf = append(buf, `],"val":[`...)
		first = true
		for _, v := range row {
			if v == 0 {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			first = false
		}
		buf = append(buf, ']')
	} else {
		buf = append(buf, `{"row":[`...)
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"t":`...)
	buf = strconv.AppendFloat(buf, t, 'g', -1, 64)
	return append(buf, '}')
}

// appendBatch renders a batch's updates as a JSON array.
func (w *workload) appendBatch(buf []byte, b batch) []byte {
	buf = append(buf, '[')
	for i := 0; i < b.n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		k := b.k0 + i
		buf = appendUpdate(buf, w.rowAt(b, k), float64(k+1), b.sparse)
	}
	return append(buf, ']')
}

// rowsBody is a single-tenant ingest body.
func (w *workload) rowsBody(b batch) []byte {
	buf := append([]byte(nil), `{"updates":`...)
	buf = w.appendBatch(buf, b)
	return append(buf, '}')
}

// bulkBody is a multi-tenant ingest body.
func (w *workload) bulkBody(bs []batch) []byte {
	buf := append([]byte(nil), `{"tenants":[`...)
	for i, b := range bs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":"`...)
		buf = append(buf, w.tenants[b.tn].id...)
		buf = append(buf, `","updates":`...)
		buf = w.appendBatch(buf, b)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// rejectBody is a batch the server must refuse: rows one value too
// long, or timestamps behind the tenant's clock.
func (w *workload) rejectBody(o op) []byte {
	t := w.tenants[o.tn]
	row := w.pools[t.cfg.D][0]
	ts := float64(o.expectUpdates + 1)
	if o.reject == "dim" {
		row = append(append([]float64(nil), row...), 1)
	} else {
		ts = float64(o.expectUpdates - 1)
	}
	buf := append([]byte(nil), `{"updates":[`...)
	buf = appendUpdate(buf, row, ts, false)
	buf = append(buf, ',')
	buf = appendUpdate(buf, row, ts, false)
	return append(buf, "]}"...)
}

// fleetOp executes one fleet-json operation and reports whether it was
// an ingest, whose time counts as an ack sample.
func (c *conn) fleetOp(o op, st *connStats) (bool, error) {
	switch o.kind {
	case opRows:
		b := o.batches[0]
		t := c.w.tenants[b.tn]
		path := "/v2/tenants/" + t.id + "/rows"
		if o.v1 {
			path = "/v1/tenants/" + t.id + "/ingest"
		}
		body := c.w.rowsBody(b)
		st.wireBytes += len(body)
		code, out, err := c.do("POST", path, "application/json", body)
		if err != nil {
			return false, err
		}
		var r struct {
			Accepted int `json:"accepted"`
		}
		if code != http.StatusOK || json.Unmarshal(out, &r) != nil || r.Accepted != b.n {
			return false, fmt.Errorf("%s: status %d: %s", path, code, out)
		}
		st.rows += b.n
		return true, nil
	case opBulk:
		path := "/v2/rows"
		if o.v1 {
			path = "/v1/ingest/bulk"
		}
		body := c.w.bulkBody(o.batches)
		st.wireBytes += len(body)
		code, out, err := c.do("POST", path, "application/json", body)
		if err != nil {
			return false, err
		}
		var r struct {
			Results []struct {
				ID       string           `json:"id"`
				Accepted int              `json:"accepted"`
				Error    *json.RawMessage `json:"error"`
			} `json:"results"`
		}
		if code != http.StatusOK || json.Unmarshal(out, &r) != nil || len(r.Results) != len(o.batches) {
			return false, fmt.Errorf("%s: status %d: %s", path, code, out)
		}
		for i, res := range r.Results {
			b := o.batches[i]
			if res.Error != nil || res.Accepted != b.n || res.ID != c.w.tenants[b.tn].id {
				return false, fmt.Errorf("%s item %d: %+v", path, i, res)
			}
			st.rows += b.n
		}
		return true, nil
	case opChurn:
		t := c.w.tenants[o.tn]
		code, out, err := c.do("DELETE", "/v2/tenants/"+t.id, "", nil)
		if err != nil {
			return false, err
		}
		if code != http.StatusOK {
			return false, fmt.Errorf("delete %s: status %d: %s", t.id, code, out)
		}
		return false, c.putTenant(t)
	case opReject:
		t := c.w.tenants[o.tn]
		path := "/v2/tenants/" + t.id + "/rows"
		if o.v1 {
			path = "/v1/tenants/" + t.id + "/ingest"
		}
		code, out, err := c.do("POST", path, "application/json", c.w.rejectBody(o))
		if err != nil {
			return false, err
		}
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if code != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || e.Error.Code != "invalid_argument" {
			return false, fmt.Errorf("%s: %s batch answered %d: %s", t.id, o.reject, code, out)
		}
		// The refused batch must leave no trace in the tenant's clock.
		return false, c.checkClock(t, o.expectUpdates)
	}
	return false, fmt.Errorf("unexpected op %v", o.kind)
}

// tenantStats is the part of /stats the gate reads.
type tenantStats struct {
	Updates    uint64             `json:"updates"`
	LastT      float64            `json:"last_t"`
	RowsStored int                `json:"rows_stored"`
	Internals  map[string]float64 `json:"internals"`
}

func (c *conn) stats(t *tenant) (tenantStats, error) {
	var s tenantStats
	code, out, err := c.do("GET", "/v2/tenants/"+t.id+"/stats", "", nil)
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("stats %s: status %d: %s", t.id, code, out)
	}
	return s, json.Unmarshal(out, &s)
}

// checkClock verifies a tenant's updates and last_t against the
// generator's model (timestamps run 1..updates).
func (c *conn) checkClock(t *tenant, updates int) error {
	s, err := c.stats(t)
	if err != nil {
		return err
	}
	if s.Updates != uint64(updates) || s.LastT != float64(updates) {
		return fmt.Errorf("%s: stats updates=%d last_t=%v, want %d and %d", t.id, s.Updates, s.LastT, updates, updates)
	}
	return nil
}

// setup creates the fleet and runs the prefill over all connections.
func setupFleet(base string, w *workload) error {
	errs := make([]error, w.conns)
	var wg sync.WaitGroup
	for id := 0; id < w.conns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newConn(id, base, w)
			defer c.close()
			if err := c.createTenants(); err != nil {
				errs[id] = err
				return
			}
			var st connStats
			for _, o := range newGen(w, id).prefill() {
				c.lease(o, &st, false)
			}
			if st.failed > 0 {
				errs[id] = fmt.Errorf("prefill: %d failures, first: %v", st.failed, st.failures)
			}
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs the measured phase: closed loop until the deadline, or
// the open-loop timetable to its end. It returns per-connection stats
// and the measured wall time.
func drive(base string, w *workload, seconds float64) ([]*connStats, time.Duration) {
	stats := make([]*connStats, w.conns)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for id := 0; id < w.conns; id++ {
		st := &connStats{}
		stats[id] = st
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newConn(id, base, w)
			defer c.close()
			g := newGen(w, id)
			g.prefill() // advance the model past the set-up rows
			for {
				if !w.openLoop() && !time.Now().Before(deadline) {
					break
				}
				o, ok := g.nextOp()
				if !ok {
					break
				}
				c.runOp(o, st, start)
				st.ops++
			}
			st.lastEnd = time.Now()
		}(id)
	}
	wg.Wait()
	end := start
	for _, st := range stats {
		if st.lastEnd.After(end) {
			end = st.lastEnd
		}
	}
	return stats, end.Sub(start)
}

// runOp executes one measured operation.
func (c *conn) runOp(o op, st *connStats, start time.Time) {
	switch o.kind {
	case opLease:
		c.lease(o, st, true)
	case opBlock, opQuery:
		due := st.waitDue(start.Add(o.at))
		st.attempted++
		var err error
		if o.kind == opBlock {
			err = c.block(o, st)
		} else {
			err = c.query(o)
		}
		lat := ms(time.Since(due))
		if err != nil {
			st.fail("%s %s: %v", opNames[o.kind], c.w.tenants[o.tn].id, err)
			return
		}
		if o.kind == opBlock {
			st.rows += o.batches[0].n
			st.acks = append(st.acks, lat)
		} else {
			st.queries = append(st.queries, lat)
		}
	default:
		due := st.waitDue(start.Add(o.at))
		st.attempted++
		ingest, err := c.fleetOp(o, st)
		lat := ms(time.Since(due))
		if err != nil {
			st.fail("%s: %v", opNames[o.kind], err)
			return
		}
		if ingest {
			st.acks = append(st.acks, lat)
		}
	}
}

// waitDue sleeps until an open-loop operation's scheduled send time and
// returns that time, from which the operation is timed.
func (st *connStats) waitDue(due time.Time) time.Time {
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
		// The connection was idle, so any delay past the due time is
		// the generator's own lateness.
		st.lags = append(st.lags, ms(time.Since(due)))
	}
	return due
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
