package core

import (
	"math/rand"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/window"
)

func sparseStream(rng *rand.Rand, n, d int) ([][]float64, []mat.SparseRow) {
	dense := make([][]float64, n)
	sparse := make([]mat.SparseRow, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for k := 0; k < 1+rng.Intn(5); k++ {
			row[rng.Intn(d)] = rng.NormFloat64()
		}
		dense[i] = row
		sparse[i] = mat.SparseFromDense(row)
	}
	return dense, sparse
}

// feedSparseBatched ingests a sparse stream the way a caller holding
// sparse rows does — densified with row.Dense(d) — in uneven batches,
// so the comparison against row-at-a-time dense ingest also crosses
// batch boundaries at arbitrary points.
func feedSparseBatched(sk WindowSketch, sparse []mat.SparseRow, d int, t0 float64) {
	for lo := 0; lo < len(sparse); {
		hi := lo + 1 + lo%37
		if hi > len(sparse) {
			hi = len(sparse)
		}
		rows := make([][]float64, 0, hi-lo)
		times := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, sparse[i].Dense(d))
			times = append(times, t0+float64(i))
		}
		sk.UpdateBatch(rows, times)
		lo = hi
	}
}

// assertSparseStorage checks that raw rows are held sparsely: each
// stored row keeps only its nonzeros.
func assertSparseStorage(t *testing.T, name string, raw []mat.SparseRow) {
	t.Helper()
	if len(raw) == 0 {
		t.Fatalf("%s holds no raw rows to inspect", name)
	}
	for i, r := range raw {
		for _, v := range r.Val {
			if v == 0 {
				t.Fatalf("%s raw row %d stores an explicit zero: %+v", name, i, r)
			}
		}
	}
}

func TestLMSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 16
	dense, sparse := sparseStream(rng, 1200, d)
	spec := window.Seq(300)
	l1, l2 := NewLMFD(spec, d, 16, 4), NewLMFD(spec, d, 16, 4)
	for i := range dense {
		l1.Update(dense[i], float64(i))
	}
	feedSparseBatched(l2, sparse, d, 0)
	// LM-FD is deterministic: the two ingest routes must agree exactly.
	if !l1.Query(1199).Equal(l2.Query(1199), 0) {
		t.Fatal("LM densified sparse batches diverge from dense rows")
	}
	if l1.RowsStored() != l2.RowsStored() {
		t.Fatalf("rows stored differ: %d vs %d", l1.RowsStored(), l2.RowsStored())
	}
	raw := append([]mat.SparseRow(nil), l2.active.raw...)
	for _, lv := range l2.levels {
		for _, blk := range lv {
			raw = append(raw, blk.raw...)
		}
	}
	assertSparseStorage(t, "LM", raw)
}

func TestDISparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 12
	dense, sparse := sparseStream(rng, 900, d)
	cfg := DIConfig{N: 200, R: 50, L: 4, Ell: 32, RSlack: 2}
	d1, d2 := NewDIFD(cfg, d), NewDIFD(cfg, d)
	for i := range dense {
		d1.Update(dense[i], float64(i))
	}
	feedSparseBatched(d2, sparse, d, 0)
	if !d1.Query(899).Equal(d2.Query(899), 0) {
		t.Fatal("DI densified sparse batches diverge from dense rows")
	}
	// The open block holds rows raw until it outgrows rawCap.
	d3 := NewDIFD(cfg, d)
	feedSparseBatched(d3, sparse[:20], d, 0)
	assertSparseStorage(t, "DI", d3.raw)
}

func TestSamplerSparseEquivalence(t *testing.T) {
	// Samplers are randomised; with identical seeds and identical
	// admitted rows the resulting candidate sets match however the
	// stream is batched.
	rng := rand.New(rand.NewSource(3))
	d := 10
	dense, sparse := sparseStream(rng, 500, d)
	spec := window.Seq(100)
	s1, s2 := NewSWR(spec, 5, d, 7), NewSWR(spec, 5, d, 7)
	w1, w2 := NewSWOR(spec, 5, d, 8), NewSWOR(spec, 5, d, 8)
	for i := range dense {
		tt := float64(i)
		s1.Update(dense[i], tt)
		w1.Update(dense[i], tt)
	}
	feedSparseBatched(s2, sparse, d, 0)
	feedSparseBatched(w2, sparse, d, 0)
	if !s1.Query(499).Equal(s2.Query(499), 0) {
		t.Fatal("SWR densified sparse batches diverge")
	}
	if !w1.Query(499).Equal(w2.Query(499), 0) {
		t.Fatal("SWOR densified sparse batches diverge")
	}
}

func TestLMSparseSnapshotRoundTrip(t *testing.T) {
	// Sparse-stored raw blocks must survive persistence.
	rng := rand.New(rand.NewSource(4))
	_, sparse := sparseStream(rng, 300, 8)
	l := NewLMFD(window.Seq(100), 8, 8, 4)
	for i, r := range sparse {
		l.Update(r.Dense(8), float64(i))
	}
	data, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored LM
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !l.Query(299).Equal(restored.Query(299), 1e-12) {
		t.Fatal("sparse snapshot round trip diverges")
	}
}
