package core

import (
	"fmt"
	"math"
	"math/rand"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// candidate is a row retained by a sampler queue: the row, its arrival
// timestamp, its squared norm, and its priority key (log-space, larger
// is higher priority).
type candidate struct {
	row []float64
	t   float64
	w   float64
	key float64
}

// swrQueue is the monotone candidate deque of Algorithm 5.1 for one
// independent sample: keys are strictly decreasing from front to back,
// so the front is the current top-priority row of the window and every
// later element is the top-priority row of some suffix.
type swrQueue struct {
	items []candidate
}

// push inserts a new candidate, evicting trailing candidates whose
// priority it dominates (they can never become the window maximum).
// It returns the number evicted.
func (q *swrQueue) push(c candidate) int {
	evicted := 0
	for n := len(q.items); n > 0 && q.items[n-1].key < c.key; n = len(q.items) {
		q.items = q.items[:n-1]
		evicted++
	}
	q.items = append(q.items, c)
	return evicted
}

// expire drops candidates with timestamps at or before the cutoff,
// returning the number dropped.
func (q *swrQueue) expire(cutoff float64) int {
	drop := 0
	for drop < len(q.items) && q.items[drop].t <= cutoff {
		drop++
	}
	if drop > 0 {
		q.items = q.items[drop:]
	}
	return drop
}

// top returns the current sample (the highest-priority live row).
func (q *swrQueue) top() (candidate, bool) {
	if len(q.items) == 0 {
		return candidate{}, false
	}
	return q.items[0], true
}

// SWR samples ℓ rows with replacement, with probability proportional
// to squared norms, over a sliding window (Algorithm 5.1). It keeps ℓ
// independent candidate deques; the expected total number of
// candidates is O(ℓ·log NR) (Lemma 5.1). SWR works for both window
// types and its output rows are (rescaled) rows of A — the sketch is
// interpretable.
type SWR struct {
	spec   window.Spec
	d      int
	ell    int
	rng    *rand.Rand
	queues []swrQueue
	norms  window.NormTracker
	lastT  float64
	seen   bool
	tr     *trace.Tracer
}

// SetTracer attaches a tracer: ingests that evict candidates emit
// sampler_evict events, and an EH-backed norm tracker (if attached
// first) emits eh_merge events.
func (s *SWR) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	if t, ok := s.norms.(trace.Traceable); ok {
		t.SetTracer(tr)
	}
}

// NewSWR returns an SWR sampler of ℓ rows over dimension d. The
// Frobenius mass used for rescaling is tracked exactly (one scalar per
// live row); use SetNormTracker to switch to the EH approximation.
func NewSWR(spec window.Spec, ell, d int, seed int64) *SWR {
	if ell < 1 || d < 1 {
		panic(fmt.Sprintf("core: SWR needs ell ≥ 1 and d ≥ 1, got %d, %d", ell, d))
	}
	return &SWR{
		spec:   spec,
		d:      d,
		ell:    ell,
		rng:    rand.New(rand.NewSource(seed)),
		queues: make([]swrQueue, ell),
		norms:  window.NewExactNorms(spec),
	}
}

// SetNormTracker replaces the Frobenius-mass tracker (e.g. with the
// exponential-histogram approximation). Call before the first Update.
func (s *SWR) SetNormTracker(nt window.NormTracker) { s.norms = nt }

// Update feeds one row as a one-row batch. Zero rows carry no sampling
// mass and are only used to advance the expiry clock.
func (s *SWR) Update(row []float64, t float64) {
	s.UpdateBatch([][]float64{row}, []float64{t})
}

// UpdateBatch feeds rows in order, validating once and folding the
// whole batch's masses into the norm tracker in one call (one EH
// canonicalization instead of len(rows)). Priority keys are drawn in
// row order, so the candidate queues — and with the exact tracker,
// every query answer — do not depend on how the stream is batched.
func (s *SWR) UpdateBatch(rows [][]float64, times []float64) {
	validateBatch("SWR", rows, times, s.d)
	ts := make([]float64, 0, len(rows))
	ws := make([]float64, 0, len(rows))
	for i, r := range rows {
		if w := s.ingestRow(r, times[i]); w > 0 {
			ts = append(ts, times[i])
			ws = append(ws, w)
		}
	}
	s.norms.AddBatch(ts, ws)
}

// ingestRow advances the clock, expires, and pushes the row into every
// queue. It returns the row's squared norm (0 when it carried no mass)
// and leaves the norm-tracker accounting to the caller.
func (s *SWR) ingestRow(row []float64, t float64) float64 {
	if s.seen && t < s.lastT {
		panic(fmt.Sprintf("core: SWR timestamp %v precedes %v", t, s.lastT))
	}
	s.lastT, s.seen = t, true
	cutoff := s.spec.Cutoff(t)
	w := mat.SqNorm(row)
	if w == 0 {
		expired := 0
		for i := range s.queues {
			expired += s.queues[i].expire(cutoff)
		}
		if expired > 0 {
			s.tr.Emit("SWR", trace.KindSamplerEvict, t, 0, float64(expired))
		}
		return 0
	}
	dominated, expired := 0, 0
	var shared []float64 // lazily copied, shared across queues (read-only)
	for i := range s.queues {
		q := &s.queues[i]
		expired += q.expire(cutoff)
		key := stream.PriorityKey(s.rng, w)
		// Fast path: if the new key does not beat the back of a
		// non-empty queue it still must be appended (it is the max of
		// its own suffix), so a copy is always needed once.
		if shared == nil {
			shared = make([]float64, s.d)
			copy(shared, row)
		}
		dominated += q.push(candidate{row: shared, t: t, w: w, key: key})
	}
	if dominated > 0 || expired > 0 {
		s.tr.Emit("SWR", trace.KindSamplerEvict, t, float64(dominated), float64(expired))
	}
	return w
}

// Query returns the rescaled ℓ-row sample for the window ending at t:
// each sampled row a is scaled by ‖Â‖_F/(√ℓ‖a‖), the unbiased
// with-replacement factor, with ‖Â‖_F from the norm tracker.
func (s *SWR) Query(t float64) *mat.Dense {
	cutoff := s.spec.Cutoff(t)
	froSq := s.norms.FroSq(t)
	if froSq <= 0 {
		return mat.NewDense(0, s.d)
	}
	fro := math.Sqrt(froSq)
	sqrtEll := math.Sqrt(float64(s.ell))
	rows := make([][]float64, 0, s.ell)
	for i := range s.queues {
		s.queues[i].expire(cutoff)
		c, ok := s.queues[i].top()
		if !ok {
			continue
		}
		f := fro / (sqrtEll * math.Sqrt(c.w))
		r := make([]float64, s.d)
		for j, v := range c.row {
			r[j] = f * v
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return mat.NewDense(0, s.d)
	}
	return mat.FromRows(rows)
}

// RowsStored reports the total number of candidate rows across all ℓ
// deques (rows shared between deques are counted once per deque, the
// paper's space accounting: it bounds E[candidates] per deque).
func (s *SWR) RowsStored() int {
	n := 0
	for i := range s.queues {
		n += len(s.queues[i].items)
	}
	return n
}

// Name implements WindowSketch.
func (s *SWR) Name() string { return "SWR" }

// Stats implements Introspector: per-queue candidate occupancy (total,
// min, max across the ℓ independent deques) plus the norm tracker's
// size — the quantities Lemma 5.1 bounds in expectation, exported so
// an operator can see the actual space profile.
func (s *SWR) Stats() map[string]float64 {
	minQ, maxQ, total := 0, 0, 0
	for i := range s.queues {
		n := len(s.queues[i].items)
		total += n
		if i == 0 || n < minQ {
			minQ = n
		}
		if n > maxQ {
			maxQ = n
		}
	}
	m := map[string]float64{
		"queues":         float64(s.ell),
		"candidates":     float64(total),
		"candidates_min": float64(minQ),
		"candidates_max": float64(maxQ),
	}
	trackerStats(m, s.norms)
	return m
}

var (
	_ WindowSketch = (*SWR)(nil)
	_ Introspector = (*SWR)(nil)
)
