package core

import (
	"sync"

	"swsketch/internal/mat"
	"swsketch/internal/trace"
)

// Concurrent wraps a WindowSketch for a one-writer/many-reader regime:
// Update takes the write lock, Query and RowsStored take it too
// (queries mutate internal expiry state in every implementation), so
// all methods serialise. It exists so a monitoring goroutine can query
// the sketch while an ingest goroutine feeds it.
type Concurrent struct {
	mu sync.Mutex
	sk WindowSketch
}

// NewConcurrent wraps sk. The wrapped sketch must not be used directly
// afterwards.
func NewConcurrent(sk WindowSketch) *Concurrent { return &Concurrent{sk: sk} }

// Update implements WindowSketch.
func (c *Concurrent) Update(row []float64, t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sk.Update(row, t)
}

// UpdateBatch implements WindowSketch, admitting the whole batch under
// a single lock acquisition — the point of batching in the one-writer/
// many-reader regime: readers see either none or all of the batch.
func (c *Concurrent) UpdateBatch(rows [][]float64, times []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sk.UpdateBatch(rows, times)
}

// Query implements WindowSketch.
func (c *Concurrent) Query(t float64) *mat.Dense {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sk.Query(t)
}

// RowsStored implements WindowSketch.
func (c *Concurrent) RowsStored() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sk.RowsStored()
}

// Name implements WindowSketch.
func (c *Concurrent) Name() string { return c.sk.Name() }

// SetTracer forwards the tracer to the wrapped sketch under the lock.
func (c *Concurrent) SetTracer(tr *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.sk.(trace.Traceable); ok {
		t.SetTracer(tr)
	}
}

// Stats implements Introspector by delegation under the lock; wrapping
// a sketch without internals yields an empty map.
func (c *Concurrent) Stats() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if in, ok := c.sk.(Introspector); ok {
		return in.Stats()
	}
	return map[string]float64{}
}

var (
	_ WindowSketch = (*Concurrent)(nil)
	_ Introspector = (*Concurrent)(nil)
)
