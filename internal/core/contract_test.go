package core_test

import (
	"testing"

	"swsketch/internal/conformance"
	"swsketch/internal/core"
	"swsketch/internal/window"
)

// TestContract runs every registered WindowSketch implementation —
// samplers, LM, DI, DS-FD, and the concurrent wrapper — through the
// shared conformance battery. The case table and the checks live in
// internal/conformance; adding a framework there gives it the whole
// suite (and the registry-coverage test enforces that HTTP-facing
// frameworks are in the table).
func TestContract(t *testing.T) {
	conformance.Run(t, conformance.Cases())
}

// TestNoSketchIsSparseUpdater pins the single ingest body: no window
// sketch (nor the concurrent wrapper) carries a per-row sparse path,
// so callers holding sparse rows densify them and every row reaches
// the sketch through UpdateBatch. Callers that still type-assert
// core.SparseUpdater therefore take their per-row Update fallback.
func TestNoSketchIsSparseUpdater(t *testing.T) {
	for _, c := range conformance.Cases() {
		sk := c.Make(window.Seq(50), 4, 1)
		if _, ok := sk.(core.SparseUpdater); ok {
			t.Errorf("%s implements core.SparseUpdater", c.Name)
		}
	}
}
