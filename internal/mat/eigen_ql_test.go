package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigenSymQLMatchesJacobiEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 5, 10, 30, 64} {
		a := randSym(rng, n)
		valsJ, _ := EigenSymJacobi(a)
		valsQ, _ := EigenSym(a)
		for i := range valsJ {
			if math.Abs(valsJ[i]-valsQ[i]) > 1e-8*(1+math.Abs(valsJ[i])) {
				t.Fatalf("n=%d: eigenvalue %d: Jacobi %v vs QL %v", n, i, valsJ[i], valsQ[i])
			}
		}
	}
}

func TestEigenSymQLReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{2, 4, 9, 25, 50} {
		a := randSym(rng, n)
		vals, v := EigenSym(a)
		if !reconstructEigen(vals, v).Equal(a, 1e-8*float64(n)) {
			t.Fatalf("n=%d: QL reconstruction failed", n)
		}
		if !Mul(v.T(), v).Equal(Identity(n), 1e-9*float64(n)) {
			t.Fatalf("n=%d: QL eigenvectors not orthonormal", n)
		}
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("n=%d: QL eigenvalues not sorted", n)
			}
		}
	}
}

func TestEigenSymQLEdgeCases(t *testing.T) {
	// Empty.
	vals, _ := EigenSym(NewDense(0, 0))
	if len(vals) != 0 {
		t.Fatal("0×0 should give no eigenvalues")
	}
	// 1×1.
	vals, v := EigenSym(FromRows([][]float64{{-3}}))
	if vals[0] != -3 || v.At(0, 0) != 1 {
		t.Fatalf("1×1: %v %v", vals, v)
	}
	// Zero matrix.
	vals, v = EigenSym(NewDense(5, 5))
	for _, val := range vals {
		if val != 0 {
			t.Fatalf("zero matrix vals = %v", vals)
		}
	}
	if !Mul(v.T(), v).Equal(Identity(5), 1e-12) {
		t.Fatal("zero matrix eigenvectors not orthonormal")
	}
	// Diagonal.
	a := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 3}})
	vals, v = EigenSym(a)
	want := []float64{5, 3, -2}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("diagonal vals = %v", vals)
		}
	}
	if !reconstructEigen(vals, v).Equal(a, 1e-10) {
		t.Fatal("diagonal reconstruction failed")
	}
	// Repeated eigenvalues.
	a = Identity(6).Scale(2)
	vals, v = EigenSym(a)
	for _, val := range vals {
		if math.Abs(val-2) > 1e-12 {
			t.Fatalf("repeated vals = %v", vals)
		}
	}
	if !reconstructEigen(vals, v).Equal(a, 1e-10) {
		t.Fatal("repeated-eigenvalue reconstruction failed")
	}
}

func TestEigenSymQLNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EigenSym(NewDense(2, 3))
}

func TestEigenSymQLPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		a := randDense(rng, 5+rng.Intn(30), 3+rng.Intn(20))
		g := a.Gram()
		vals, v := EigenSym(g)
		if !reconstructEigen(vals, v).Equal(g, 1e-7*(1+g.MaxAbs())*float64(g.Rows())) {
			t.Fatalf("trial %d: PSD reconstruction failed", trial)
		}
		for _, val := range vals {
			if val < -1e-7*(1+g.MaxAbs()) {
				t.Fatalf("trial %d: PSD matrix has negative eigenvalue %v", trial, val)
			}
		}
	}
}

func TestEigenSymQLIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 6
	q := orthonormalize(randDense(rng, n, n))
	dm := NewDense(n, n)
	want := []float64{1e8, 1e4, 1, 1e-2, 1e-5, 0}
	for i, v := range want {
		dm.Set(i, i, v)
	}
	a := Mul(Mul(q, dm), q.T())
	at := a.T()
	a.Add(at).Scale(0.5)
	vals, _ := EigenSym(a)
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-6*(1+w) {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
}

// Property: QL agrees with Jacobi on random symmetric matrices.
func TestEigenSymQLAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randSym(rng, n)
		valsJ, _ := EigenSymJacobi(a)
		valsQ, vq := EigenSym(a)
		for i := range valsJ {
			if math.Abs(valsJ[i]-valsQ[i]) > 1e-7*(1+math.Abs(valsJ[i])) {
				return false
			}
		}
		return reconstructEigen(valsQ, vq).Equal(a, 1e-7*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkEigenRowsBits decomposes a both ways and demands bit equality
// of the values and of Vᵀ, with the vector kernels on (where the host
// has them) and off.
func checkEigenRowsBits(a *Dense) error {
	wantVals, wantV := eigenColumnForm(a)
	wantVT := wantV.T()
	saved := kernelsASM
	defer func() { kernelsASM = saved }()
	for _, asm := range []bool{saved, false} {
		kernelsASM = asm
		vals, vt := EigenSymRows(a)
		if err := sameBits(NewDenseData(1, len(vals), vals), NewDenseData(1, len(wantVals), wantVals)); err != nil {
			return fmt.Errorf("values (kernels %v): %w", asm, err)
		}
		if err := sameBits(vt, wantVT); err != nil {
			return fmt.Errorf("Vᵀ (kernels %v): %w", asm, err)
		}
	}
	return nil
}

// TestEigenSymRowsMatchesColumnForm: random full-rank, rank-deficient
// and all-zero symmetric inputs of every size up to 70 (every residue
// of the 4-wide kernels and their tails), bit for bit against the
// column form.
func TestEigenSymRowsMatchesColumnForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 70; n++ {
		for kind := 0; kind < 4; kind++ {
			var a *Dense
			switch kind {
			case 0: // indefinite
				a = randSym(rng, n)
			case 1: // full-rank Gram
				a = randDense(rng, n, n+2).GramT()
			case 2: // rank-deficient Gram with repeated rows
				x := randDense(rng, n, 8)
				for i := 2; i < n; i++ {
					copy(x.Row(i), x.Row(rng.Intn(i)))
				}
				a = x.GramT()
			case 3:
				a = NewDense(n, n)
			}
			if err := checkEigenRowsBits(a); err != nil {
				t.Fatalf("n=%d kind %d: %v", n, kind, err)
			}
		}
	}
}

// lowRankNaNGram is the exactly low-rank Gram that drove the old
// tred2 to NaN: rows 0 and 1 are Gaussian, row i ≥ 2 is row i mod 2
// times {1, 0.5, 2}[i mod 3]. A reduction step meets a subnormal row
// scale whose reciprocal overflows.
func lowRankNaNRows(n, d int) *Dense {
	rng := rand.New(rand.NewSource(2))
	x := NewDense(n, d)
	for i := 0; i < 2 && i < n; i++ {
		for j := range x.Row(i) {
			x.Row(i)[j] = rng.NormFloat64()
		}
	}
	for i := 2; i < n; i++ {
		f := []float64{1, 0.5, 2}[i%3]
		for j, v := range x.Row(i % 2) {
			x.Row(i)[j] = f * v
		}
	}
	return x
}

// TestEigenSymSubnormalScale: the rank-2 Gram above decomposes to
// finite values, two positive and the rest zero to rounding, with
// orthonormal leading vectors. (The null-space vectors are only
// finite: QL rotations built from subnormal tridiagonal entries lose
// their orthogonality.)
func TestEigenSymSubnormalScale(t *testing.T) {
	g := lowRankNaNRows(40, 16).GramT()
	vals, vt := EigenSymRows(g)
	for i, v := range append(append([]float64(nil), vals...), vt.data...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("entry %d of the decomposition is %v", i, v)
		}
	}
	tol := 1e-9 * vals[0]
	if vals[1] <= tol {
		t.Fatalf("rank-2 Gram: second eigenvalue %v, want > %v", vals[1], tol)
	}
	for i, v := range vals[2:] {
		if math.Abs(v) > tol {
			t.Fatalf("eigenvalue %d = %v, want ≈ 0", i+2, v)
		}
	}
	lead := NewDenseData(2, 40, vt.data[:80])
	if !Mul(lead, lead.T()).Equal(Identity(2), 1e-12) {
		t.Fatal("leading eigenvectors not orthonormal")
	}
	if !reconstructEigen(vals, vt.T()).Equal(g, 1e-9*vals[0]) {
		t.Fatal("reconstruction failed")
	}

	// A diagonal matrix whose last row is subnormal off the diagonal
	// sends both reduction routines straight into the guard.
	a := NewDense(6, 6)
	for i := 0; i < 6; i++ {
		a.Set(i, i, float64(i+1))
		if i < 5 {
			a.Set(5, i, 1e-320)
			a.Set(i, 5, 1e-320)
		}
	}
	var s SymEigTopK
	full, _ := EigenSymRows(a)
	for name, got := range map[string][]float64{"EigenSymRows": full, "SymEigTopK": s.Values(a)} {
		for i, v := range got {
			if want := float64(6 - i); !(math.Abs(v-want) <= 1e-14) {
				t.Fatalf("%s: eigenvalue %d = %v, want %v", name, i, v, want)
			}
		}
	}
}

// eigenFuzzInput encodes a symmetric input for FuzzEigenSym: n−1 (high
// bit: repeat every row of the factor into the next, making the Gram
// rank-deficient), then the entries of an n×n factor X as
// little-endian int16s in units of 1/256; the decomposed matrix is
// X·Xᵀ when the second bit of the header is set, else X's lower
// triangle mirrored.
func eigenFuzzInput(n int, dup, gram bool, at func(i, j int) float64) []byte {
	h := byte(n - 1)
	if dup {
		h |= 0x80
	}
	if gram {
		h |= 0x40
	}
	b := []byte{h}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b = binary.LittleEndian.AppendUint16(b, uint16(int16(math.Round(at(i, j)*256))))
		}
	}
	return b
}

// decodeEigenFuzz is eigenFuzzInput's inverse: n ≤ 48, finite bounded
// entries (|v| < 128), missing entries zero.
func decodeEigenFuzz(data []byte) *Dense {
	if len(data) < 1 {
		return nil
	}
	n := 1 + int(data[0]&0x3f)
	if n > 48 {
		n = 48
	}
	dup, gram := data[0]&0x80 != 0, data[0]&0x40 != 0
	body := data[1:]
	x := NewDense(n, n)
	for i := range x.data {
		if 2*i+1 >= len(body) {
			break
		}
		x.data[i] = float64(int16(binary.LittleEndian.Uint16(body[2*i:]))) / 256
	}
	if dup {
		for i := 0; i+1 < n; i += 2 {
			copy(x.Row(i+1), x.Row(i))
		}
	}
	if gram {
		return x.GramT()
	}
	mirrorLower(x)
	return x
}

// FuzzEigenSym checks EigenSymRows against the column-form oracle bit
// for bit on fuzzer-chosen symmetric and Gram inputs.
func FuzzEigenSym(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	gauss := func(int, int) float64 { return rng.NormFloat64() }
	f.Add(eigenFuzzInput(1, false, false, gauss))
	f.Add(eigenFuzzInput(5, false, false, gauss))
	f.Add(eigenFuzzInput(9, true, true, gauss))   // rank-deficient Gram
	f.Add(eigenFuzzInput(24, false, true, gauss)) // full-rank Gram
	f.Add(eigenFuzzInput(33, true, true, gauss))  // odd size, repeated rows
	f.Add(eigenFuzzInput(48, false, false, gauss))
	f.Add(eigenFuzzInput(12, false, true, func(i, j int) float64 { // rank one
		return float64(i+1) * float64(j%5-2)
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeEigenFuzz(data)
		if a == nil {
			return
		}
		if err := checkEigenRowsBits(a); err != nil {
			t.Fatalf("n=%d: %v", a.rows, err)
		}
	})
}

// BenchmarkEigenSym times the classic eigensolver at the FD shrink's
// Gram sizes (ℓ = 24, 64, 128), row form against the column form it
// replaced.
func BenchmarkEigenSym(b *testing.B) {
	for _, n := range []int{24, 64, 128} {
		a := randDense(rand.New(rand.NewSource(17)), n, 2*n).GramT()
		b.Run(fmt.Sprintf("rows/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EigenSymRows(a)
			}
		})
		b.Run(fmt.Sprintf("columns/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eigenColumnForm(a)
			}
		})
	}
}

// eigenColumnForm is the scalar column-form tred2/tql2 solver that
// EigenSymRows replaced, kept verbatim as the bit-exact oracle (apart
// from the subnormal-scale guard both share): EigenSymRows(a) must
// reproduce its values and the transpose of its vectors to the last
// bit.
func eigenColumnForm(a *Dense) (vals []float64, v *Dense) {
	n := a.rows
	v = a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	if n == 0 {
		return d, v
	}
	tred2Columns(v.data, n, d, e)
	tql2Columns(d, e, v.data, n)
	sortEigenDesc(d, v)
	return d, v
}

// tred2Columns reduces the symmetric matrix stored in v (n×n row-major) to
// tridiagonal form with diagonal d and sub-diagonal e (e[0] unused),
// overwriting v with the accumulated orthogonal transformation Q such
// that Qᵀ·A·Q = tridiag(d, e).
func tred2Columns(v []float64, n int, d, e []float64) {
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(v[i*n+k])
			}
			if scale == 0 {
				e[i] = v[i*n+l]
			} else {
				inv := 1 / scale
				for k := 0; k <= l; k++ {
					if math.IsInf(inv, 0) {
						v[i*n+k] /= scale
					} else {
						v[i*n+k] *= inv
					}
					h += v[i*n+k] * v[i*n+k]
				}
				f := v[i*n+l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				v[i*n+l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					v[j*n+i] = v[i*n+j] / h
					g = 0
					for k := 0; k <= j; k++ {
						g += v[j*n+k] * v[i*n+k]
					}
					for k := j + 1; k <= l; k++ {
						g += v[k*n+j] * v[i*n+k]
					}
					e[j] = g / h
					f += e[j] * v[i*n+j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = v[i*n+j]
					g = e[j] - hh*f
					e[j] = g
					vj := v[j*n : j*n+j+1]
					vi := v[i*n : i*n+j+1]
					for k := 0; k <= j; k++ {
						vj[k] -= f*e[k] + g*vi[k]
					}
				}
			}
		} else {
			e[i] = v[i*n+l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	// Accumulate the transformations.
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += v[i*n+k] * v[k*n+j]
				}
				for k := 0; k <= l; k++ {
					v[k*n+j] -= g * v[k*n+i]
				}
			}
		}
		d[i] = v[i*n+i]
		v[i*n+i] = 1
		for j := 0; j <= l; j++ {
			v[j*n+i] = 0
			v[i*n+j] = 0
		}
	}
}

// tql2Columns diagonalises the symmetric tridiagonal matrix (d, e) with the
// implicit-shift QL algorithm, accumulating rotations into v (which on
// entry holds the tred2Columns transformation). On exit d holds the
// eigenvalues (unsorted) and the columns of v the eigenvectors.
func tql2Columns(d, e []float64, v []float64, n int) {
	if n <= 1 {
		return
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	const maxIter = 60
	eps := math.Nextafter(1, 2) - 1
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a negligible sub-diagonal element.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= maxIter {
				// Convergence failure is essentially impossible for
				// the PSD Gram matrices this library feeds in; accept
				// the current (very close) values rather than panic.
				break
			}
			// Form the implicit shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow: skip the rest of the
					// transformation.
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				// Accumulate the rotation into the eigenvectors.
				for k := 0; k < n; k++ {
					f = v[k*n+i+1]
					v[k*n+i+1] = s*v[k*n+i] + c*f
					v[k*n+i] = c*v[k*n+i] - s*f
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
}
