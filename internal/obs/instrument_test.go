package obs

import (
	"math"
	"strings"
	"testing"

	"swsketch/internal/core"
	"swsketch/internal/window"
)

// TestInstrumentedIsTransparent drives an instrumented and a bare
// sketch with the same stream and requires bit-identical answers.
func TestInstrumentedIsTransparent(t *testing.T) {
	bare := core.NewSWR(window.Seq(50), 4, 3, 7)
	wrapped := NewInstrumented(core.NewSWR(window.Seq(50), 4, 3, 7), NewRegistry())

	for i := 0; i < 120; i++ {
		row := []float64{float64(i % 5), 1, float64(i % 3)}
		bare.Update(row, float64(i))
		wrapped.Update(row, float64(i))
	}
	a, b := bare.Query(119), wrapped.Query(119)
	if a.Rows() != b.Rows() {
		t.Fatalf("rows %d vs %d", a.Rows(), b.Rows())
	}
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > 0 {
				t.Fatalf("row %d differs: %v vs %v", i, ra, rb)
			}
		}
	}
	if bare.RowsStored() != wrapped.RowsStored() {
		t.Fatalf("rows stored %d vs %d", bare.RowsStored(), wrapped.RowsStored())
	}
}

func TestInstrumentedRecordsMetrics(t *testing.T) {
	reg := NewRegistry()
	sk := NewInstrumented(core.NewLMFD(window.Seq(100), 3, 8, 4), reg)

	rows := make([][]float64, 32)
	times := make([]float64, 32)
	for i := range rows {
		rows[i] = []float64{1, float64(i), 0}
		times[i] = float64(i)
	}
	sk.UpdateBatch(rows, times)
	sk.Update([]float64{1, 2, 3}, 32)
	sk.Query(33)

	out := reg.Expose()
	for _, want := range []string{
		`swsketch_ingest_rows_total{algo="LM-FD"} 33`,
		`swsketch_ingest_batches_total{algo="LM-FD"} 1`,
		`swsketch_update_seconds_count{algo="LM-FD"} 2`,
		`swsketch_query_seconds_count{algo="LM-FD"} 1`,
		`swsketch_rows_stored{algo="LM-FD"}`,
		`swsketch_internal{algo="LM-FD",stat="levels"}`,
		`swsketch_internal{algo="LM-FD",stat="active_rows"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestInstrumentedSyncWrapsScrapeReads(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	NewInstrumented(core.NewSWOR(window.Seq(10), 2, 2, 1), reg,
		WithSync(func(f func()) { calls++; f() }))
	_ = reg.Expose()
	// rows_stored gauge + internals set = two synced reads per scrape.
	if calls != 2 {
		t.Fatalf("sync called %d times, want 2", calls)
	}
}

func TestPerRowTimingIsSampled(t *testing.T) {
	reg := NewRegistry()
	sk := NewInstrumented(core.NewSWR(window.Seq(100), 4, 3, 1), reg) // default: every 16th
	for i := 0; i < 33; i++ {
		sk.Update([]float64{1, 2, 3}, float64(i))
	}
	out := reg.Expose()
	// Rows are counted exactly; timings hit rows 0, 16 and 32 only.
	for _, want := range []string{
		`swsketch_ingest_rows_total{algo="SWR"} 33`,
		`swsketch_update_seconds_count{algo="SWR"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestInstrumentedStatsDelegates(t *testing.T) {
	sk := NewInstrumented(core.NewZero(2), NewRegistry())
	if got := sk.Stats(); len(got) != 0 {
		t.Fatalf("stats of non-introspector = %v", got)
	}
	var _ core.Introspector = sk
}
