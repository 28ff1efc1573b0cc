package obs

import (
	"sync/atomic"
	"time"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/trace"
)

// Instrumented decorates a core.WindowSketch with metrics: ingest and
// query latency histograms, row counters, a rows-stored gauge, and —
// when the sketch implements core.Introspector — a dynamic gauge set
// exposing its internals. Counters count every row, but per-row update
// timings are sampled (every 16th row) because a clock read pair costs
// a meaningful fraction of a cheap sampler update. Batch and query
// calls are always timed — their cost amortises the clock reads.
// Scrape-time callbacks (rows stored, internals) go through the Sync
// option so a /metrics scrape can serialise against the writer.
type Instrumented struct {
	sk   core.WindowSketch
	sync func(func())

	n atomic.Uint64 // per-row Update calls; timed when (n-1)&sampleMask == 0

	ingestRows    *Counter
	ingestBatches *Counter
	updateSeconds *Histogram
	querySeconds  *Histogram
}

// InstrumentOption configures an Instrumented wrapper.
type InstrumentOption func(*Instrumented)

// WithSync sets the callback wrapper used for scrape-time reads of the
// wrapped sketch (RowsStored, Stats). Pass a function that runs its
// argument under the lock that guards the sketch; the default runs it
// directly, which is only safe for single-threaded use.
func WithSync(sync func(func())) InstrumentOption {
	return func(i *Instrumented) { i.sync = sync }
}

// sampleMask times one in every 16 per-row updates, which keeps the
// decorator's overhead under a few percent even for sub-µs sampler
// updates while still populating the latency histogram.
const sampleMask = 15

// NewInstrumented wraps sk, registering its instruments in reg under
// the label algo=<sk.Name()>. The wrapped sketch must not be updated
// directly afterwards, or the metrics go stale.
func NewInstrumented(sk core.WindowSketch, reg *Registry, opts ...InstrumentOption) *Instrumented {
	algo := Labels{"algo": sk.Name()}
	i := &Instrumented{
		sk:   sk,
		sync: func(f func()) { f() },
		ingestRows: reg.Counter("swsketch_ingest_rows_total",
			"Rows ingested into the sketch.", algo),
		ingestBatches: reg.Counter("swsketch_ingest_batches_total",
			"Bulk ingest calls (UpdateBatch).", algo),
		updateSeconds: reg.Histogram("swsketch_update_seconds",
			"Latency of one Update or UpdateBatch call.", algo, nil),
		querySeconds: reg.Histogram("swsketch_query_seconds",
			"Latency of one Query call.", algo, nil),
	}
	for _, o := range opts {
		o(i)
	}
	reg.GaugeFunc("swsketch_rows_stored",
		"Current sketch space usage in rows.", algo, func() float64 {
			var n int
			i.sync(func() { n = i.sk.RowsStored() })
			return float64(n)
		})
	if intro, ok := sk.(core.Introspector); ok {
		reg.GaugeSet("swsketch_internal",
			"Sketch internals from core.Introspector.", "stat", algo,
			func() map[string]float64 {
				var m map[string]float64
				i.sync(func() { m = intro.Stats() })
				return m
			})
	}
	return i
}

// Unwrap returns the underlying sketch (for capability checks like
// snapshot support that must not see the decorator).
func (i *Instrumented) Unwrap() core.WindowSketch { return i.sk }

// SetTracer forwards the tracer to the wrapped sketch.
func (i *Instrumented) SetTracer(tr *trace.Tracer) {
	if t, ok := i.sk.(trace.Traceable); ok {
		t.SetTracer(tr)
	}
}

// Update implements core.WindowSketch. The timing is sampled; the row
// counter is exact.
func (i *Instrumented) Update(row []float64, t float64) {
	i.ingestRows.Inc()
	if (i.n.Add(1)-1)&sampleMask == 0 {
		start := time.Now()
		i.sk.Update(row, t)
		i.updateSeconds.Observe(time.Since(start).Seconds())
		return
	}
	i.sk.Update(row, t)
}

// UpdateBatch implements core.WindowSketch; the whole batch is one
// latency observation, so per-row overhead amortises to a few
// nanoseconds at serving batch sizes.
func (i *Instrumented) UpdateBatch(rows [][]float64, times []float64) {
	start := time.Now()
	i.sk.UpdateBatch(rows, times)
	i.updateSeconds.Observe(time.Since(start).Seconds())
	i.ingestRows.Add(uint64(len(rows)))
	i.ingestBatches.Inc()
}

// Query implements core.WindowSketch.
func (i *Instrumented) Query(t float64) *mat.Dense {
	start := time.Now()
	b := i.sk.Query(t)
	i.querySeconds.Observe(time.Since(start).Seconds())
	return b
}

// RowsStored implements core.WindowSketch.
func (i *Instrumented) RowsStored() int { return i.sk.RowsStored() }

// Name implements core.WindowSketch.
func (i *Instrumented) Name() string { return i.sk.Name() }

// Stats implements core.Introspector by delegation; wrapping a sketch
// without internals yields an empty map.
func (i *Instrumented) Stats() map[string]float64 {
	if intro, ok := i.sk.(core.Introspector); ok {
		return intro.Stats()
	}
	return map[string]float64{}
}

var (
	_ core.WindowSketch = (*Instrumented)(nil)
	_ core.Introspector = (*Instrumented)(nil)
)
