package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestDeclaredRBatchIsAtomic: a batch whose second row exceeds the
// declared R panics before its first row lands, for every sketch that
// takes a declared bound (DI-AMM through its inner DI), with the same
// message row-at-a-time Update raises.
func TestDeclaredRBatchIsAtomic(t *testing.T) {
	cases := map[string]WindowSketch{
		"DI-FD":  NewDIFD(DIConfig{N: 64, R: 4, L: 3, Ell: 4}, 2),
		"DS-FD":  NewDSFD(DSFDConfig{N: 64, Ell: 4, R: 4}, 2),
		"DI-AMM": NewDIAMM(DIConfig{N: 64, R: 4, L: 3, Ell: 4}, 1, 1),
	}
	for name, sk := range cases {
		t.Run(name, func(t *testing.T) {
			before := sk.(Introspector).Stats()
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				sk.UpdateBatch([][]float64{{1, 0}, {10, 0}}, []float64{0, 1})
				return ""
			}()
			if !strings.Contains(msg, "row squared norm 100 exceeds declared R=4") {
				t.Fatalf("panic %q, want the declared-R refusal", msg)
			}
			if after := sk.(Introspector).Stats(); !reflect.DeepEqual(before, after) || sk.RowsStored() != 0 {
				t.Fatalf("refused batch changed state: %v -> %v, rows stored %d", before, after, sk.RowsStored())
			}
			sk.UpdateBatch([][]float64{{1, 0}}, []float64{0}) // the clock did not move
		})
	}
}

// TestBatchBoundKeepsFirstFailure: the up-front pass reports what
// row-at-a-time ingest would have hit first — here a clock regression
// in row 0 ahead of the over-R row 1.
func TestBatchBoundKeepsFirstFailure(t *testing.T) {
	di := NewDIFD(DIConfig{N: 64, R: 4, L: 3, Ell: 4}, 2)
	di.Update([]float64{1, 0}, 5)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "timestamp 4 precedes 5") {
			t.Fatalf("panic %q, want the clock regression", msg)
		}
	}()
	di.UpdateBatch([][]float64{{1, 0}, {10, 0}}, []float64{4, 6})
}
