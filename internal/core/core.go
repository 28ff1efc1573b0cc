// Package core implements the paper's sliding-window matrix sketches:
//
//   - SWR and SWOR (Section 5): norm-proportional row sampling with and
//     without replacement via priority-sampling candidate queues, plus
//     the SWOR-ALL variant that answers with every candidate row.
//   - LM (Section 6): the Logarithmic Method, which converts any
//     mergeable streaming sketch (FrequentDirections, Hashing) into a
//     sketch for both time- and sequence-based sliding windows.
//   - DI (Section 7): the Dyadic Interval framework, which converts an
//     arbitrary streaming sketch (FD, random projection, Hashing) into
//     a sequence-window sketch with a better space profile when the
//     norm ratio R is small.
//   - Best (Section 8): the offline best rank-k baseline.
//
// Every sketch implements WindowSketch: feed timestamped rows with
// Update and materialise an approximation B for the current window
// with Query. For sequence-based windows, use the row's stream index
// as its timestamp.
package core

import (
	"fmt"
	"math"

	"swsketch/internal/mat"
)

// WindowSketch is a continuously maintained matrix sketch over a
// sliding window. Implementations are not safe for concurrent use;
// wrap them in Concurrent for a one-writer/many-reader regime.
type WindowSketch interface {
	// Update feeds one row arriving at timestamp t. Timestamps must be
	// non-decreasing; for sequence windows use the stream index. The
	// row is copied, never retained.
	Update(row []float64, t float64)
	// UpdateBatch feeds rows arriving at the corresponding timestamps,
	// in order. It is each sketch's only ingest body: Update is a
	// one-row UpdateBatch, so the visible state after a batch matches
	// calling Update on each row in turn (including any internal
	// randomness), while the sketch validates once and amortises
	// per-row bookkeeping across the batch. Rows and times must have
	// equal length; neither slice is retained.
	UpdateBatch(rows [][]float64, times []float64)
	// Query returns the approximation B ∈ R^{ℓ×d} for the window
	// ending at time t (which must be ≥ the latest Update timestamp).
	Query(t float64) *mat.Dense
	// RowsStored reports the sketch's current space usage in rows, the
	// measure used throughout the paper's evaluation.
	RowsStored() int
	// Name identifies the algorithm (e.g. "SWR", "LM-FD") in harness
	// output.
	Name() string
}

// validateBatch performs the up-front checks shared by every
// UpdateBatch (and so, through the one-row batch, every Update):
// matching slice lengths, row dimension, and finiteness. A single
// non-finite value would otherwise poison Gram accumulations, FD
// shrinks, and priority draws silently, and the corruption only
// surfaces queries later — fail loudly at the source instead.
// Timestamp monotonicity stays with each sketch's per-row ingest,
// which already enforces it against its own clock.
func validateBatch(algo string, rows [][]float64, times []float64, d int) {
	if len(rows) != len(times) {
		panic(fmt.Sprintf("core: %s batch has %d rows but %d timestamps", algo, len(rows), len(times)))
	}
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("core: %s batch row %d length %d, want %d", algo, i, len(r), d))
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("core: %s row has non-finite value %v at index %d", algo, v, j))
			}
		}
	}
}

// checkBatchBound is the up-front pass of the sketches that take a
// declared squared-norm bound R (DI, DS-FD): before any row lands it
// walks the batch as per-row ingest will — timestamp order against the
// running clock, then ‖a‖² ≤ R·slack — and panics with the message
// ingest would raise, so a refused batch leaves the sketch untouched.
// Zero rows carry no mass and do not advance the clock, as in ingest;
// r = 0 (an adaptive bound) skips the norm test.
func checkBatchBound(algo string, rows [][]float64, times []float64, lastT float64, seen bool, r, slack float64) {
	for i, row := range rows {
		t := times[i]
		if seen && t < lastT {
			panic(fmt.Sprintf("core: %s timestamp %v precedes %v", algo, t, lastT))
		}
		w := rowSqNorm(row)
		if w == 0 {
			continue
		}
		if r > 0 && w > r*slack {
			panic(fmt.Sprintf("core: %s row squared norm %v exceeds declared R=%v", algo, w, r))
		}
		lastT, seen = t, true
	}
}

// Introspector is implemented by sketches that expose their internal
// state as a flat name → value map for operational monitoring: queue
// depths, level occupancy, shrink counts, tracker sizes. Keys are
// stable lower_snake_case identifiers; values are gauges sampled at
// call time. Stats must return a fresh map (callers may mutate it) and
// must not modify sketch state beyond what a read does. All of the
// paper's sketches (SWR, SWOR, LM, DI) implement it, as do the
// Concurrent wrapper and obs.Instrumented by delegation.
type Introspector interface {
	Stats() map[string]float64
}

// trackerStats merges a norm tracker's own Stats() (when it has one,
// e.g. the EH-backed tracker) into dst under "norm_tracker_<key>".
func trackerStats(dst map[string]float64, nt interface{ Size() int }) {
	dst["norm_tracker_items"] = float64(nt.Size())
	if in, ok := nt.(Introspector); ok {
		for k, v := range in.Stats() {
			dst["norm_tracker_"+k] = v
		}
	}
}

// SparseUpdater is a window sketch with a per-row sparse ingest path,
// UpdateSparse(row, t) ≡ Update(row.Dense(d), t). No window sketch
// implements it: every sketch has one ingest body, UpdateBatch, and
// callers holding sparse rows call Update(row.Dense(d), t) (LM and DI
// still store rows sparsely inside). The declaration stays because
// the benchmark module (perfbench) type-asserts it; with no
// implementer those assertions fall back to per-row Update, which
// matches a one-block UpdateBatch bit for bit.
type SparseUpdater interface {
	WindowSketch
	UpdateSparse(row mat.SparseRow, t float64)
}
