package main

// Spans for the traced replay. The benchmark records them from its own
// code, around each call it makes into a layer: name, start, end, the
// parent span and the operation it belongs to. They stay in memory
// (one slice per replay goroutine, no locking) and are written out as
// JSON lines when the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Span names; the text before the dot is the layer (the package the
// call goes into, or serve for the request glue the benchmark mirrors).
const (
	spIngest    uint8 = iota // root: one ingest block or JSON ingest request
	spBulk                   // root: one bulk request
	spQuery                  // root: one query
	spChurn                  // root: delete + create
	spReject                 // root: a refused batch and its stats probe
	spJSON                   // serve: JSON body decode
	spEncode                 // serve: response or ack encode
	spDecode                 // binenc: frame decode
	spAcquire                // registry: Tenant.Acquire (restore included)
	spCommit                 // registry: Tenant.Commit
	spRelease                // registry: Tenant.Release
	spCreate                 // registry: Registry.Create
	spDelete                 // registry: Registry.Delete
	spWAL                    // wal: AppendRows / AppendCreate / AppendDelete
	spUpdate                 // core: UpdateBatch / Update / UpdateSparse
	spQueryCore              // core: Query / AmmApproximation
	spPCA                    // pca: Compute
	spHH                     // obs/hh: ObserveIngest / ObserveEvent
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"serve.ingest", "serve.bulk", "serve.query", "serve.churn", "serve.reject",
	"serve.json_decode", "serve.encode", "binenc.decode",
	"registry.acquire", "registry.commit", "registry.release", "registry.create", "registry.delete",
	"wal.append", "core.update", "core.query", "pca.compute", "hh.observe",
}

func layerOf(name uint8) string {
	n := spanNames[name]
	return n[:strings.IndexByte(n, '.')]
}

// span is one recorded call. Times are nanoseconds since the replay
// started; parent indexes the same recorder's slice (-1 for a root).
type span struct {
	name   uint8
	fw     uint8 // framework index (fwNames) of the tenant touched
	flag   bool  // acquire: the tenant was spilled (a restore)
	parent int32
	op     int64
	rows   int32
	start  int64
	end    int64
}

// recorder collects one goroutine's spans; a nil recorder records
// nothing, which is the untraced replay.
type recorder struct {
	conn  int
	t0    time.Time
	spans []span
	op    int64
	root  int32
}

// maxSpans caps one recorder's memory (~48 bytes a span).
const maxSpans = 4 << 20

// beginOp opens an operation's root span.
func (r *recorder) beginOp(name uint8, op int64) {
	if r == nil {
		return
	}
	r.op = op
	r.root = -1
	r.root = r.begin(name, 0)
}

// begin opens a child of the current operation's root.
func (r *recorder) begin(name, fw uint8) int32 {
	if r == nil || len(r.spans) >= maxSpans {
		return -1
	}
	r.spans = append(r.spans, span{name: name, fw: fw, parent: r.root, op: r.op,
		start: int64(time.Since(r.t0))})
	return int32(len(r.spans) - 1)
}

// end closes span i, recording rows touched.
func (r *recorder) end(i int32, rows int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.t0))
	r.spans[i].rows = int32(rows)
}

// endOp closes the current operation's root span.
func (r *recorder) endOp(rows int) {
	if r != nil {
		r.end(r.root, rows)
	}
}

// mark sets span i's flag.
func (r *recorder) mark(i int32) {
	if r != nil && i >= 0 {
		r.spans[i].flag = true
	}
}

// writeSpans dumps every recorder as JSON lines: one object per span
// with a globally unique id and parent id.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	base := int64(0)
	for _, r := range recs {
		for i, s := range r.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = base + int64(s.parent)
			}
			fmt.Fprintf(bw, `{"id":%d,"parent":%d,"op":%d,"conn":%d,"name":%q,"fw":%q,"restore":%t,"rows":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				base+int64(i), parent, s.op, r.conn, spanNames[s.name], fwNames[s.fw], s.flag, s.rows, s.start, s.end)
		}
		base += int64(len(r.spans))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanAgg summarises spans by name (and framework).
type spanAgg struct {
	durs []float64 // ns
	rows int64
}

func (a *spanAgg) add(s span) {
	a.durs = append(a.durs, float64(s.end-s.start))
	a.rows += int64(s.rows)
}

func (a *spanAgg) sum() float64 {
	t := 0.0
	for _, d := range a.durs {
		t += d
	}
	return t
}

func (a *spanAgg) mean() float64 {
	if a == nil || len(a.durs) == 0 {
		return 0
	}
	return a.sum() / float64(len(a.durs))
}

func (a *spanAgg) quantile(q float64) float64 {
	if a == nil || len(a.durs) == 0 {
		return 0
	}
	s := append([]float64(nil), a.durs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// spanSummary indexes the recorded spans.
type spanSummary struct {
	byName   map[uint8]*spanAgg
	byNameFW map[[2]uint8]*spanAgg
	restores *spanAgg
	// layerBusy is each layer's total span time in ns.
	layerBusy map[string]float64
	encodeQ   *spanAgg // response encodes under query roots
	walRows   *spanAgg // wal appends of row blocks
}

func summarize(recs []*recorder) *spanSummary {
	ss := &spanSummary{
		byName: map[uint8]*spanAgg{}, byNameFW: map[[2]uint8]*spanAgg{},
		restores: &spanAgg{}, layerBusy: map[string]float64{},
		encodeQ: &spanAgg{}, walRows: &spanAgg{},
	}
	get := func(m map[uint8]*spanAgg, k uint8) *spanAgg {
		if m[k] == nil {
			m[k] = &spanAgg{}
		}
		return m[k]
	}
	for _, r := range recs {
		for _, s := range r.spans {
			get(ss.byName, s.name).add(s)
			k := [2]uint8{s.name, s.fw}
			if ss.byNameFW[k] == nil {
				ss.byNameFW[k] = &spanAgg{}
			}
			ss.byNameFW[k].add(s)
			if s.name == spAcquire && s.flag {
				ss.restores.add(s)
			}
			if s.name == spEncode && s.parent >= 0 && r.spans[s.parent].name == spQuery {
				ss.encodeQ.add(s)
			}
			if s.name == spWAL && s.rows > 0 {
				ss.walRows.add(s)
			}
			ss.layerBusy[layerOf(s.name)] += float64(s.end - s.start)
		}
	}
	return ss
}
