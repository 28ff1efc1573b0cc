package mat

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The equivalence suite pins the blocked/parallel kernels to the
// naive scalar references on every shape class the sketches produce.
// GOMAXPROCS is raised so the worker pool genuinely fans out even on
// single-core runners (Go happily schedules more procs than CPUs),
// which also puts the pool under the race detector in `make race`.
func init() {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

// mulProcsEnv names the GOMAXPROCS a TestMulToProcsHelper subprocess
// starts its worker pool with.
const mulProcsEnv = "SWSKETCH_MAT_MUL_PROCS"

// mulProcsInputs are the 200×64 and 64×192 factors of
// TestMulToIndependentOfGOMAXPROCS: large enough to fan out, with 200
// rows so most pool sizes would cut chunks inside a 4-row tile.
func mulProcsInputs() (a, b *Dense) {
	rng := rand.New(rand.NewSource(21))
	return randDense(rng, 200, 64), randDense(rng, 64, 192)
}

// TestMulToProcsHelper is the subprocess half of
// TestMulToIndependentOfGOMAXPROCS: it sizes a fresh worker pool from
// the requested GOMAXPROCS and prints the product's digest.
func TestMulToProcsHelper(t *testing.T) {
	procs, err := strconv.Atoi(os.Getenv(mulProcsEnv))
	if err != nil {
		t.Skip("runs as a subprocess of TestMulToIndependentOfGOMAXPROCS")
	}
	runtime.GOMAXPROCS(procs)
	a, b := mulProcsInputs()
	fmt.Printf("digest=%s pool=%d\n", eigenDigest(nil, MulTo(NewDense(200, 192), a, b)), pool.size)
}

// TestMulToIndependentOfGOMAXPROCS: MulTo gives the same bits whatever
// the pool size, and those of the serial kernel. Each pool size runs
// in its own process, since the pool is sized once, on first use.
func TestMulToIndependentOfGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	a, b := mulProcsInputs()
	serial := NewDense(200, 192)
	mulRows(serial, a, b, 0, 200)
	want := eigenDigest(nil, serial)
	for _, procs := range []int{1, 2, 3, 4, 8} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMulToProcsHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", mulProcsEnv, procs))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v\n%s", procs, err, out)
		}
		wantLine := fmt.Sprintf("digest=%s pool=%d", want, procs)
		if !strings.Contains(string(out), wantLine) {
			t.Errorf("GOMAXPROCS=%d: got %q, want a line %q", procs, out, wantLine)
		}
	}
}

const kernelTol = 1e-12

// tolFor scales the 1e-12 pin by the summation length: reassociating
// an n-term float sum moves the result by O(n·ε·Σ|terms|), so the
// tolerance must grow with the inner dimension to stay meaningful on
// the 10000-deep shapes without loosening the short ones.
func tolFor(inner int) float64 {
	if inner < 1 {
		inner = 1
	}
	return kernelTol * float64(inner)
}

// randSparseDense returns an r×c matrix with N(0,1) entries and a
// sprinkle of exact zeros so the zero-skip paths are exercised.
func randSparseDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		if rng.Intn(8) == 0 {
			continue
		}
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// kernelShapes is the shape battery from the issue: random square,
// tall (10000×8), wide (8×10000), zero, and 1×1, plus sketch-typical
// short-and-wide shapes around the parallel threshold.
var kernelShapes = []struct{ r, c int }{
	{1, 1},
	{3, 5},
	{8, 10000},
	{10000, 8},
	{64, 64},
	{24, 256},
	{200, 300},
	{513, 129}, // odd sizes: exercises every unroll remainder
	{0, 7},
	{7, 0},
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range kernelShapes {
		for _, n := range []int{1, 4, 63, 256} {
			a := randSparseDense(rng, s.r, s.c)
			b := randSparseDense(rng, s.c, n)
			got := Mul(a, b)
			want := mulNaive(a, b)
			if !got.Equal(want, tolFor(s.c)) {
				t.Fatalf("Mul (%d×%d)·(%d×%d) diverges from naive by %g",
					s.r, s.c, s.c, n, maxDiff(got, want))
			}
		}
	}
	// Zero matrices stay zero.
	z := Mul(NewDense(40, 30), NewDense(30, 20))
	if z.MaxAbs() != 0 {
		t.Fatal("Mul of zero matrices is non-zero")
	}
}

func TestMulToMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randSparseDense(rng, 37, 111)
	b := randSparseDense(rng, 111, 53)
	dst := NewDense(37, 53)
	for i := range dst.data {
		dst.data[i] = rng.NormFloat64() // stale garbage must be overwritten
	}
	MulTo(dst, a, b)
	if want := Mul(a, b); !dst.Equal(want, kernelTol) {
		t.Fatal("MulTo diverges from Mul")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MulTo with mismatched destination did not panic")
		}
	}()
	MulTo(NewDense(2, 2), a, b)
}

func TestGramMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// The wide case is capped at 8×1500: Gram's output is cols², and a
	// 10000²-entry reference check adds minutes under -race for no
	// extra coverage of the kernel's code paths.
	shapes := []struct{ r, c int }{
		{1, 1}, {3, 5}, {8, 1500}, {10000, 8}, {64, 64},
		{24, 256}, {200, 300}, {513, 129}, {0, 7}, {7, 0},
	}
	for _, s := range shapes {
		a := randSparseDense(rng, s.r, s.c)
		got := a.Gram()
		want := gramNaive(a)
		if !got.Equal(want, tolFor(s.r)) {
			t.Fatalf("Gram %d×%d diverges from naive by %g", s.r, s.c, maxDiff(got, want))
		}
	}
}

func TestGramTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, s := range kernelShapes {
		a := randSparseDense(rng, s.r, s.c)
		got := a.GramT()
		want := gramTNaive(a)
		if !got.Equal(want, tolFor(s.c)) {
			t.Fatalf("GramT %d×%d diverges from naive by %g", s.r, s.c, maxDiff(got, want))
		}
	}
}

func TestDotSqNormMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 100, 1001} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if got, want := Dot(a, b), dotNaive(a, b); abs(got-want) > tolFor(n) {
			t.Fatalf("Dot length %d: %v vs %v", n, got, want)
		}
		if got, want := SqNorm(a), dotNaive(a, a); abs(got-want) > tolFor(n) {
			t.Fatalf("SqNorm length %d: %v vs %v", n, got, want)
		}
	}
}

func TestAddOuterToMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 4, 5, 31, 64, 129} {
		row := make([]float64, n)
		for i := range row {
			if rng.Intn(6) != 0 {
				row[i] = rng.NormFloat64()
			}
		}
		g1 := randSparseDense(rng, n, n)
		g2 := g1.Clone()
		AddOuterTo(g1, row, -2.5)
		addOuterToNaive(g2, row, -2.5)
		if !g1.Equal(g2, kernelTol) {
			t.Fatalf("AddOuterTo length %d diverges from naive", n)
		}
	}
}

// TestKernelsDeterministic asserts repeated parallel runs — including
// concurrent ones sharing the worker pool — produce bit-identical
// results: chunks cover fixed ranges, so scheduling cannot leak into
// the floats. The golden determinism tests downstream rely on this.
func TestKernelsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSparseDense(rng, 600, 80)
	b := randSparseDense(rng, 80, 120)
	refMul := Mul(a, b)
	refGram := a.Gram()
	refGramT := a.GramT()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				if !Mul(a, b).Equal(refMul, 0) {
					errs <- "Mul not deterministic"
				}
				if !a.Gram().Equal(refGram, 0) {
					errs <- "Gram not deterministic"
				}
				if !a.GramT().Equal(refGramT, 0) {
					errs <- "GramT not deterministic"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		hits := make([]int32, n)
		var mu sync.Mutex
		parallelFor(n, 7, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func maxDiff(a, b *Dense) float64 {
	d := a.Clone()
	d.Sub(b)
	return d.MaxAbs()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
