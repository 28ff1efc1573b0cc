package stream

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"swsketch/internal/mat"
)

func randRow(rng *rand.Rand, d int) []float64 {
	r := make([]float64, d)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return r
}

// feed streams n random rows into sk, returning the exact matrix.
func feed(t *testing.T, sk Sketch, rng *rand.Rand, n, d int) *mat.Dense {
	t.Helper()
	a := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		row := randRow(rng, d)
		copy(a.Row(i), row)
		sk.Update(row)
	}
	return a
}

func covaErr(a, b *mat.Dense) float64 {
	return mat.CovarianceError(a.Gram(), a.FrobeniusSq(), b)
}

func TestNewFDValidation(t *testing.T) {
	for _, c := range [][2]int{{1, 5}, {0, 5}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for ell=%d d=%d", c[0], c[1])
				}
			}()
			NewFD(c[0], c[1])
		}()
	}
}

func TestFDRowLengthPanics(t *testing.T) {
	f := NewFD(4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong row length")
		}
	}()
	f.Update([]float64{1, 2})
}

func TestFDExactWhenUnderCapacity(t *testing.T) {
	// Fewer rows than ℓ: FD stores them exactly, zero error.
	rng := rand.New(rand.NewSource(1))
	f := NewFD(20, 6)
	a := feed(t, f, rng, 10, 6)
	if e := covaErr(a, f.Matrix()); e > 1e-10 {
		t.Fatalf("under-capacity error = %v, want 0", e)
	}
	if f.Used() != 10 {
		t.Fatalf("Used = %d, want 10", f.Used())
	}
}

func TestFDErrorBound(t *testing.T) {
	// Liberty's guarantee: ‖AᵀA − BᵀB‖ ≤ 2‖A‖²_F/ℓ.
	rng := rand.New(rand.NewSource(2))
	for _, ell := range []int{8, 16, 32} {
		f := NewFD(ell, 10)
		a := feed(t, f, rng, 500, 10)
		errAbs := covaErr(a, f.Matrix()) * a.FrobeniusSq()
		bound := 2 * a.FrobeniusSq() / float64(ell)
		if errAbs > bound {
			t.Fatalf("ell=%d: error %v exceeds FD bound %v", ell, errAbs, bound)
		}
	}
}

func TestFDErrorShrinksWithEll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, d := 800, 12
	a := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		copy(a.Row(i), randRow(rng, d))
	}
	prev := 1.0
	for _, ell := range []int{4, 8, 16} {
		f := NewFD(ell, d)
		for i := 0; i < n; i++ {
			f.Update(a.Row(i))
		}
		e := covaErr(a, f.Matrix())
		if e > prev*1.1 { // allow slight non-monotonicity
			t.Fatalf("error did not shrink with ell: ell=%d err=%v prev=%v", ell, e, prev)
		}
		prev = e
	}
}

func TestFDBufferNeverExceedsEll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := NewFD(6, 4)
	for i := 0; i < 200; i++ {
		f.Update(randRow(rng, 4))
		if f.Used() > 6 {
			t.Fatalf("Used = %d exceeds ell = 6", f.Used())
		}
	}
	if f.RowsStored() != 6 {
		t.Fatalf("RowsStored = %d, want 6", f.RowsStored())
	}
}

func TestFDShrinkLeavesRoom(t *testing.T) {
	// After a shrink at capacity, at least ⌊ℓ/2⌋ rows are free.
	rng := rand.New(rand.NewSource(5))
	f := NewFD(8, 5)
	for i := 0; i < 8; i++ {
		f.Update(randRow(rng, 5))
	}
	f.Update(randRow(rng, 5)) // triggers shrink
	if f.Used() > 5 {
		t.Fatalf("after shrink Used = %d, want ≤ ⌈ℓ/2⌉+1 = 5", f.Used())
	}
}

// TestFDShrinkExactlyLowRank: an exactly rank-2 stream (rows 0 and 1
// Gaussian, row i ≥ 2 = row i mod 2 times {1, 0.5, 2}[i mod 3]) drives
// the eigensolver through a subnormal Householder scale on the first
// shrink. The shrink must keep both directions and charge a finite Δ,
// not NaN out and drop the buffer.
func TestFDShrinkExactlyLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := [2][]float64{randRow(rng, 16), randRow(rng, 16)}
	f := NewFD(40, 16)
	for i := 0; i < 41; i++ {
		row := append([]float64(nil), base[i%2]...)
		if i >= 2 {
			for j := range row {
				row[j] *= []float64{1, 0.5, 2}[i%3]
			}
		}
		f.Update(row)
	}
	if f.Shrinks() != 1 {
		t.Fatalf("shrinks = %d, want 1", f.Shrinks())
	}
	if d := f.Delta(); math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("Delta = %v after the shrink", d)
	}
	if f.Used() < 2 {
		t.Fatalf("Used = %d after the shrink, want the 2 directions kept", f.Used())
	}
	for i, v := range f.Matrix().Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sketch entry %d is %v", i, v)
		}
	}
}

func TestFDMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 8
	f1, f2 := NewFD(16, d), NewFD(16, d)
	a1 := feed(t, f1, rng, 300, d)
	a2 := feed(t, f2, rng, 300, d)
	f1.Merge(f2)

	a := mat.Stack(a1, a2)
	errAbs := covaErr(a, f1.Matrix()) * a.FrobeniusSq()
	bound := 2 * a.FrobeniusSq() / 16
	if errAbs > bound {
		t.Fatalf("merged error %v exceeds FD bound %v", errAbs, bound)
	}
	if f1.Used() > 16 {
		t.Fatalf("merge grew the sketch: Used = %d", f1.Used())
	}
}

func TestFDMergeTypeMismatchPanics(t *testing.T) {
	f := NewFD(4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Merge(NewRP(4, 3, 1))
}

func TestFDMergeDimensionMismatchPanics(t *testing.T) {
	f := NewFD(4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Merge(NewFD(4, 5))
}

func TestFDCloneEmpty(t *testing.T) {
	f := NewFD(6, 4)
	f.Update([]float64{1, 2, 3, 4})
	c := f.CloneEmpty().(*FD)
	if c.Used() != 0 || c.Ell() != 6 {
		t.Fatalf("CloneEmpty: used=%d ell=%d", c.Used(), c.Ell())
	}
}

func TestFDDeterministic(t *testing.T) {
	// FD is deterministic: same stream, same sketch.
	rows := make([][]float64, 50)
	rng := rand.New(rand.NewSource(7))
	for i := range rows {
		rows[i] = randRow(rng, 5)
	}
	f1, f2 := NewFD(6, 5), NewFD(6, 5)
	for _, r := range rows {
		f1.Update(r)
		f2.Update(r)
	}
	if !f1.Matrix().Equal(f2.Matrix(), 0) {
		t.Fatal("FD not deterministic")
	}
}

func TestFDSpikeDirection(t *testing.T) {
	// A dominant direction must survive sketching almost exactly.
	rng := rand.New(rand.NewSource(8))
	d := 10
	f := NewFD(8, d)
	spike := make([]float64, d)
	spike[3] = 10
	a := mat.NewDense(400, d)
	for i := 0; i < 400; i++ {
		row := randRow(rng, d)
		for j := range row {
			row[j] = row[j]*0.1 + spike[j]
		}
		copy(a.Row(i), row)
		f.Update(row)
	}
	b := f.Matrix()
	// ‖B e₃‖² should be close to ‖A e₃‖².
	unit := make([]float64, d)
	unit[3] = 1
	got := mat.SqNorm(b.MulVec(unit))
	want := mat.SqNorm(a.MulVec(unit))
	if got < 0.9*want {
		t.Fatalf("dominant direction lost: ‖Be₃‖²=%v vs ‖Ae₃‖²=%v", got, want)
	}
}

// Property: FD error bound holds for random ℓ, n, d.
func TestFDErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ell := 4 + 2*rng.Intn(6)
		d := 2 + rng.Intn(8)
		n := 50 + rng.Intn(200)
		fd := NewFD(ell, d)
		a := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			row := randRow(rng, d)
			copy(a.Row(i), row)
			fd.Update(row)
		}
		errAbs := covaErr(a, fd.Matrix()) * a.FrobeniusSq()
		return errAbs <= 2*a.FrobeniusSq()/float64(ell)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFDRelativeErrorBound(t *testing.T) {
	// The sharper Ghashami–Phillips (SODA 2014) analysis — the paper's
	// reference [20] — adapted to the halving variant implemented here
	// (each shrink subtracts λ = σ²_{⌈ℓ/2⌉}, freeing ℓ/2 slots): for
	// any k < ℓ/2,
	//   ‖AᵀA − BᵀB‖ ≤ ‖A − A_k‖²_F / (ℓ/2 − k).
	// On effectively low-rank data this is far tighter than Liberty's
	// 2‖A‖²_F/ℓ; FD as implemented must satisfy it.
	rng := rand.New(rand.NewSource(20))
	d, n, ell := 16, 600, 12
	rank := 3
	dirs := make([][]float64, rank)
	for i := range dirs {
		dirs[i] = randRow(rng, d)
	}
	fd := NewFD(ell, d)
	a := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for _, b := range dirs {
			c := rng.NormFloat64()
			for j := range row {
				row[j] += c * b[j]
			}
		}
		for j := range row {
			row[j] += 0.01 * rng.NormFloat64()
		}
		copy(a.Row(i), row)
		fd.Update(row)
	}
	errAbs := covaErr(a, fd.Matrix()) * a.FrobeniusSq()

	sa := mat.SingularValues(a)
	half := ell / 2
	for _, k := range []int{1, 2, 3, 4} {
		var tail float64
		for i := k; i < len(sa); i++ {
			tail += sa[i] * sa[i]
		}
		bound := tail / float64(half-k)
		if errAbs > bound+1e-9 {
			t.Fatalf("k=%d: FD error %v exceeds relative bound %v", k, errAbs, bound)
		}
	}
	// And the relative bound at k=rank is far below Liberty's: the
	// structured data makes the gap obvious.
	var tail float64
	for i := rank; i < len(sa); i++ {
		tail += sa[i] * sa[i]
	}
	liberty := 2 * a.FrobeniusSq() / float64(ell)
	relative := tail / float64(half-rank)
	if relative > liberty/10 {
		t.Fatalf("low-rank data should separate the bounds: relative %v vs Liberty %v", relative, liberty)
	}
}
