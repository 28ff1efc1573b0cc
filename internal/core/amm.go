package core

import (
	"fmt"
	"math"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// PairedWindowSketch generalises WindowSketch to two correlated row
// streams A and B observed in lockstep: row pairs (aᵢ, bᵢ) arrive
// together, and the sketch answers approximate matrix multiplication
// (AMM) queries — an estimate of AᵀB restricted to the sliding window
// — next to the ordinary stacked-row contract.
//
// The embedding that makes the window machinery reusable: a paired
// sketch is also a plain WindowSketch over STACKED rows [a|b] of
// dimension dA+dB, so every existing ingest route (batch, sparse,
// WAL replay, the /v2 stream protocol) moves paired data without
// change, and the frameworks' level/interval structures never learn
// the row is split. Query returns the stacked co-sketch rows [X|Y];
// AmmApproximation derives the AᵀB estimate XᵀY from them.
//
// Implementations must be judged by the AMM metric
// ‖AᵀB − XᵀY‖₂/(‖A‖F·‖B‖F): the stacked output deliberately does NOT
// satisfy the single-stream covariance guarantee (a co-sketch spends
// its rows on the product spectrum, not the stacked spectrum).
type PairedWindowSketch interface {
	WindowSketch
	// UpdatePaired feeds one row pair arriving at timestamp t;
	// equivalent to Update([a|b], t).
	UpdatePaired(t float64, rowA, rowB []float64)
	// AmmApproximation returns the windowed AᵀB estimate (dA×dB rows)
	// for the window ending at time t.
	AmmApproximation(t float64) [][]float64
	// AmmDims reports the two side dimensions (dA, dB).
	AmmDims() (int, int)
}

// AMM kinds for the snapshot codec.
const (
	ammKindLM = 1
	ammKindDI = 2
)

// AMM lifts the COD co-sketch (stream.COD) to sliding windows through
// the existing LM or DI framework — the construction of "Optimal
// Approximate Matrix Multiplication over Sliding Window" (arXiv
// 2502.17940): COD is deterministic and mergeable exactly like FD, so
// the frameworks' block-level machinery (LM's logarithmic levels, DI's
// dyadic intervals) lifts it unchanged; only the per-block sketch
// factory differs. The stacked dimension d = dA+dB is what the inner
// framework sees; block mass is ‖a‖²+‖b‖², so the frameworks' mass
// thresholds charge both sides — the norm regime the paper's analysis
// assumes.
type AMM struct {
	inner WindowSketch // *LM or *DI over stacked rows
	dA    int
	dB    int
	kind  int
	opts  stream.FDOpts // COD buffer tuning, recorded for snapshots

	// Rebuild parameters for the snapshot codec.
	spec  window.Spec // LM kind
	ell   int         // LM kind: block mass threshold and COD size
	b     int         // LM kind: blocks per level
	dicfg DIConfig    // DI kind (validated)

	tr *trace.Tracer
}

func checkAmmDims(dA, dB int) {
	if dA < 1 || dB < 1 {
		panic(fmt.Sprintf("core: AMM needs dA ≥ 1 and dB ≥ 1, got %d and %d", dA, dB))
	}
}

// NewLMAMM builds the LM-lifted co-sketch: COD blocks of ℓ row pairs
// under the Logarithmic Method, for sequence- or time-based windows.
// ell is both the block mass threshold and the per-block co-sketch
// size; b is blocks per level, as in NewLMFD.
func NewLMAMM(spec window.Spec, dA, dB, ell, b int) *AMM {
	return NewLMAMMOpts(spec, dA, dB, ell, b, stream.FDOpts{})
}

// NewLMAMMOpts is NewLMAMM with the FastFD-style buffer discipline
// applied to every block co-sketch (see stream.FDOpts; COD shares
// FD's buffer/α semantics). The zero FDOpts reproduces NewLMAMM
// exactly, snapshot bytes included.
func NewLMAMMOpts(spec window.Spec, dA, dB, ell, b int, o stream.FDOpts) *AMM {
	checkAmmDims(dA, dB)
	if ell < 2 {
		panic(fmt.Sprintf("core: LM-AMM needs ell ≥ 2, got %d", ell))
	}
	o = o.Normalize()
	lm := NewLM(spec, dA+dB, float64(ell), b, "LM-AMM", func(int) stream.Mergeable {
		return stream.NewCODOpts(ell, dA, dB, o)
	})
	return &AMM{inner: lm, dA: dA, dB: dB, kind: ammKindLM, opts: o, spec: spec, ell: ell, b: b}
}

// NewDIAMM builds the DI-lifted co-sketch: per-level COD sketches
// under the Dyadic Interval framework, for sequence windows with a
// known stacked-norm bound R (every pair must satisfy ‖a‖²+‖b‖² ≤ R).
// The per-level co-sketch sizes follow cfg exactly as in NewDIFD.
func NewDIAMM(cfg DIConfig, dA, dB int) *AMM {
	return NewDIAMMOpts(cfg, dA, dB, stream.FDOpts{})
}

// NewDIAMMOpts is NewDIAMM with COD buffer tuning (see NewLMAMMOpts).
func NewDIAMMOpts(cfg DIConfig, dA, dB int, o stream.FDOpts) *AMM {
	checkAmmDims(dA, dB)
	c := cfg.validate()
	o = o.Normalize()
	di := NewDI(cfg, dA+dB, "DI-AMM", func(level, _ int) stream.Sketch {
		ell := c.levelEll(level)
		if ell < 2 {
			ell = 2
		}
		return stream.NewCODOpts(ell, dA, dB, o)
	})
	return &AMM{inner: di, dA: dA, dB: dB, kind: ammKindDI, opts: o, dicfg: c}
}

// AutoAMM returns an LM-lifted co-sketch sized for target relative AMM
// error eps. Calibration mirrors AutoLMFD: COD's product error scales
// as c/ℓ just like FD's covariance error (the σ-vs-σ² charge cancels
// against the ‖A‖F‖B‖F normalisation), so ℓ ≈ 1/ε with b ≈ 1/(3ε)
// blocks per level for the expiring-block term.
func AutoAMM(spec window.Spec, dA, dB int, eps float64) *AMM {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("core: AutoAMM target eps %v outside (0,1)", eps))
	}
	ell := clampInt(int(math.Ceil(1/eps)), 8, 512)
	b := clampInt(int(math.Ceil(1/(3*eps))), 4, 64)
	return NewLMAMM(spec, dA, dB, ell, b)
}

// SetTracer attaches a tracer to the inner framework (block closes,
// merges, and COD shrink spans flow from there).
func (a *AMM) SetTracer(tr *trace.Tracer) {
	a.tr = tr
	if t, ok := a.inner.(trace.Traceable); ok {
		t.SetTracer(tr)
	}
}

// Update feeds one stacked row [a|b] (the WindowSketch contract).
func (a *AMM) Update(row []float64, t float64) { a.inner.Update(row, t) }

// UpdateBatch feeds stacked rows in order (the WindowSketch contract).
func (a *AMM) UpdateBatch(rows [][]float64, times []float64) { a.inner.UpdateBatch(rows, times) }

// UpdatePaired feeds one row pair arriving at timestamp t. The pair is
// validated against (dA, dB) — the mismatched-dimension failure mode
// the stacked route cannot distinguish — then stacked and ingested.
func (a *AMM) UpdatePaired(t float64, rowA, rowB []float64) {
	if len(rowA) != a.dA || len(rowB) != a.dB {
		panic(fmt.Sprintf("core: %s pair lengths (%d,%d), want (%d,%d)", a.Name(), len(rowA), len(rowB), a.dA, a.dB))
	}
	row := make([]float64, a.dA+a.dB)
	copy(row[:a.dA], rowA)
	copy(row[a.dA:], rowB)
	a.inner.Update(row, t)
}

// Query returns the stacked co-sketch rows [X|Y] for the window ending
// at t — the raw material AmmApproximation derives the product from,
// kept as the WindowSketch answer so generic harness checks (batch
// bit-equality, snapshot continuation, expiry) apply unchanged.
func (a *AMM) Query(t float64) *mat.Dense { return a.inner.Query(t) }

// AmmProduct returns the windowed AᵀB estimate XᵀY as a dA×dB matrix.
func (a *AMM) AmmProduct(t float64) *mat.Dense {
	return StackedProduct(a.Query(t), a.dA, a.dB)
}

// AmmApproximation implements PairedWindowSketch: the AᵀB estimate as
// dA rows of length dB.
func (a *AMM) AmmApproximation(t float64) [][]float64 {
	p := a.AmmProduct(t)
	out := make([][]float64, a.dA)
	for i := range out {
		out[i] = p.Row(i)
	}
	return out
}

// AmmDims implements PairedWindowSketch.
func (a *AMM) AmmDims() (int, int) { return a.dA, a.dB }

// RowsStored reports the inner framework's space usage in row pairs.
func (a *AMM) RowsStored() int { return a.inner.RowsStored() }

// Name implements WindowSketch ("LM-AMM" or "DI-AMM").
func (a *AMM) Name() string { return a.inner.Name() }

// Stats implements Introspector: the inner framework's stats plus the
// side dimensions.
func (a *AMM) Stats() map[string]float64 {
	m := map[string]float64{}
	if in, ok := a.inner.(Introspector); ok {
		m = in.Stats()
	}
	m["d_a"] = float64(a.dA)
	m["d_b"] = float64(a.dB)
	return m
}

// StackedProduct derives the AᵀB estimate XᵀY from stacked co-sketch
// rows [X|Y] (n×(dA+dB)) — the inverse of the stacked embedding,
// shared by the AMM query path, the conformance suite, and the bench
// oracle comparisons.
func StackedProduct(q *mat.Dense, dA, dB int) *mat.Dense {
	if q.Cols() != dA+dB {
		panic(fmt.Sprintf("core: stacked rows have %d columns, want %d+%d", q.Cols(), dA, dB))
	}
	n := q.Rows()
	p := mat.NewDense(dA, dB)
	if n == 0 {
		return p
	}
	x := mat.NewDense(n, dA)
	y := mat.NewDense(n, dB)
	for i := 0; i < n; i++ {
		row := q.Row(i)
		copy(x.Row(i), row[:dA])
		copy(y.Row(i), row[dA:])
	}
	mat.MulTo(p, x.T(), y)
	return p
}

var (
	_ WindowSketch       = (*AMM)(nil)
	_ PairedWindowSketch = (*AMM)(nil)
	_ Introspector       = (*AMM)(nil)
)
