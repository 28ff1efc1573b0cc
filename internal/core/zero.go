package core

import (
	"fmt"

	"swsketch/internal/mat"
)

// Zero is the degenerate baseline the paper's observation (5) calls
// out: it always answers B = 0, achieving covariance error
// ‖AᵀA‖₂/‖A‖²_F = σ₁²/Σσᵢ² — already small on data whose energy is
// spread across many directions (0.0338 on the paper's SYNTHETIC).
// Any sketch worth its space must beat this number; the harness prints
// it alongside the figures to anchor the error axes.
type Zero struct {
	d int
}

// NewZero returns the zero-answer baseline for dimension d.
func NewZero(d int) *Zero {
	if d < 1 {
		panic(fmt.Sprintf("core: Zero needs d ≥ 1, got %d", d))
	}
	return &Zero{d: d}
}

// Update discards the row as a one-row batch.
func (z *Zero) Update(row []float64, t float64) {
	z.UpdateBatch([][]float64{row}, []float64{t})
}

// UpdateBatch discards the rows after the shared batch validation.
func (z *Zero) UpdateBatch(rows [][]float64, times []float64) {
	validateBatch("Zero", rows, times, z.d)
}

// Query returns the empty approximation.
func (z *Zero) Query(t float64) *mat.Dense { return mat.NewDense(0, z.d) }

// RowsStored reports zero.
func (z *Zero) RowsStored() int { return 0 }

// Name implements WindowSketch.
func (z *Zero) Name() string { return "ZERO" }

var _ WindowSketch = (*Zero)(nil)
