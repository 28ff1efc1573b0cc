package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{5, 3}, {3, 5}, {4, 4}, {1, 6}, {6, 1}, {10, 7}} {
		a := randDense(rng, dims[0], dims[1])
		res := QR(a)
		if err := checkQRShapes(a, res); err != nil {
			t.Fatal(err)
		}
		if !Mul(res.Q, res.R).Equal(a, 1e-10) {
			t.Fatalf("%v: QR reconstruction failed", dims)
		}
	}
}

func TestQROrthonormalQ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 8, 5)
	res := QR(a)
	if !Mul(res.Q.T(), res.Q).Equal(Identity(5), 1e-10) {
		t.Fatal("QᵀQ != I")
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 6, 6)
	res := QR(a)
	for i := 0; i < 6; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(res.R.At(i, j)) > 1e-12 {
				t.Fatalf("R(%d,%d) = %v below diagonal", i, j, res.R.At(i, j))
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Duplicate columns: QR must not blow up, reconstruction holds.
	a := FromRows([][]float64{{1, 1, 2}, {2, 2, 1}, {3, 3, 0}})
	res := QR(a)
	if !Mul(res.Q, res.R).Equal(a, 1e-10) {
		t.Fatal("rank-deficient reconstruction failed")
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := NewDense(3, 3)
	res := QR(a)
	if !Mul(res.Q, res.R).Equal(a, 1e-12) {
		t.Fatal("zero-matrix QR failed")
	}
}

func TestQRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randDense(rng, m, n)
		res := QR(a)
		if !Mul(res.Q, res.R).Equal(a, 1e-9) {
			return false
		}
		k := res.Q.Cols()
		return Mul(res.Q.T(), res.Q).Equal(Identity(k), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOrthonormalRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 4, 10)
	q := OrthonormalRows(a, 3)
	if q.Rows() != 3 || q.Cols() != 10 {
		t.Fatalf("dims %d×%d", q.Rows(), q.Cols())
	}
	if !q.GramT().Equal(Identity(3), 1e-10) {
		t.Fatal("rows not orthonormal")
	}
	// k defaulting.
	qd := OrthonormalRows(a, 0)
	if qd.Rows() != 4 {
		t.Fatalf("default k rows = %d", qd.Rows())
	}
	// Row space preserved: each original row is in the span of q's rows
	// (projector reproduces it).
	full := OrthonormalRows(a, 4)
	for i := 0; i < 4; i++ {
		row := a.Row(i)
		proj := make([]float64, 10)
		for p := 0; p < 4; p++ {
			d := Dot(full.Row(p), row)
			for j := range proj {
				proj[j] += d * full.Row(p)[j]
			}
		}
		for j := range proj {
			if math.Abs(proj[j]-row[j]) > 1e-8 {
				t.Fatalf("row %d not in span at column %d", i, j)
			}
		}
	}
}

// qrColumnForm is the column-form Householder QR that QRRows replaced,
// kept verbatim as the bit-exact oracle: QRRows(a) must reproduce
// qrColumnForm(aᵀ) to the last bit, Qᵀ and R both.
func qrColumnForm(a *Dense) QRResult {
	m, n := a.Dims()
	k := m
	if n < k {
		k = n
	}
	r := a.Clone()
	vs := make([][]float64, 0, k)

	for j := 0; j < k; j++ {
		v := make([]float64, m-j)
		var norm float64
		for i := j; i < m; i++ {
			v[i-j] = r.At(i, j)
			norm += v[i-j] * v[i-j]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			vs = append(vs, nil)
			continue
		}
		if v[0] >= 0 {
			v[0] += norm
		} else {
			v[0] -= norm
		}
		var vsq float64
		for _, x := range v {
			vsq += x * x
		}
		if vsq == 0 {
			vs = append(vs, nil)
			continue
		}
		for c := j; c < n; c++ {
			var dot float64
			for i := j; i < m; i++ {
				dot += v[i-j] * r.At(i, c)
			}
			f := 2 * dot / vsq
			for i := j; i < m; i++ {
				r.Set(i, c, r.At(i, c)-f*v[i-j])
			}
		}
		vs = append(vs, v)
	}

	rOut := NewDense(k, n)
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			rOut.Set(i, j, r.At(i, j))
		}
	}

	q := NewDense(m, k)
	for j := 0; j < k; j++ {
		q.Set(j, j, 1)
	}
	for j := len(vs) - 1; j >= 0; j-- {
		v := vs[j]
		if v == nil {
			continue
		}
		var vsq float64
		for _, x := range v {
			vsq += x * x
		}
		for c := 0; c < k; c++ {
			var dot float64
			for i := j; i < m; i++ {
				dot += v[i-j] * q.At(i, c)
			}
			f := 2 * dot / vsq
			for i := j; i < m; i++ {
				q.Set(i, c, q.At(i, c)-f*v[i-j])
			}
		}
	}
	return QRResult{Q: q, R: rOut}
}

// sameBits returns an error naming the first entry where a and b
// differ in any IEEE-754 bit (or their shapes differ), nil otherwise.
func sameBits(a, b *Dense) error {
	if a.rows != b.rows || a.cols != b.cols {
		return fmt.Errorf("shape %d×%d vs %d×%d", a.rows, a.cols, b.rows, b.cols)
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return fmt.Errorf("entry (%d,%d): %v (%#x) vs %v (%#x)", i/a.cols, i%a.cols,
				v, math.Float64bits(v), b.data[i], math.Float64bits(b.data[i]))
		}
	}
	return nil
}

// checkQRRowsBits factors a (n×m, rows = columns to factor) both ways
// and demands bit equality of Qᵀ and R.
func checkQRRowsBits(a *Dense) error {
	qt, r := QRRows(a)
	want := qrColumnForm(a.T())
	if err := sameBits(qt, want.Q.T()); err != nil {
		return fmt.Errorf("Qᵀ: %w", err)
	}
	if err := sameBits(r, want.R); err != nil {
		return fmt.Errorf("R: %w", err)
	}
	return nil
}

// TestQRRowsMatchesColumnForm: random shapes on both sides of square,
// plus the degenerate inputs a shrink meets (zero, duplicate and
// rank-deficient columns), bit for bit against the column form.
func TestQRRowsMatchesColumnForm(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(20), 1+rng.Intn(20)
		a := randDense(rng, n, m)
		switch trial % 5 {
		case 1: // a zero column
			copy(a.Row(rng.Intn(n)), make([]float64, m))
		case 2: // duplicate columns
			copy(a.Row(rng.Intn(n)), a.Row(rng.Intn(n)))
		case 3: // rank one
			for i := 1; i < n; i++ {
				for j := range a.Row(i) {
					a.Row(i)[j] = float64(i) * a.Row(0)[j]
				}
			}
		case 4: // all zero
			a = NewDense(n, m)
		}
		if err := checkQRRowsBits(a); err != nil {
			t.Fatalf("trial %d (%d×%d): %v", trial, n, m, err)
		}
	}
}

// qrFuzzInput encodes a row-form QR input for FuzzQR: n−1, then m−1
// (high bit: duplicate every even row into the next), then each entry
// as a little-endian int16 in units of 1/256.
func qrFuzzInput(n, m int, dup bool, at func(i, j int) float64) []byte {
	b := []byte{byte(n - 1), byte(m - 1)}
	if dup {
		b[1] |= 0x80
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			b = binary.LittleEndian.AppendUint16(b, uint16(int16(math.Round(at(i, j)*256))))
		}
	}
	return b
}

// decodeQRFuzz is qrFuzzInput's inverse: shapes up to 32×32, finite
// bounded entries (|v| < 128, so no reflector overflows), missing
// entries zero.
func decodeQRFuzz(data []byte) *Dense {
	if len(data) < 2 {
		return nil
	}
	n, m := 1+int(data[0]&0x1f), 1+int(data[1]&0x1f)
	dup := data[1]&0x80 != 0
	body := data[2:]
	a := NewDense(n, m)
	for i := range a.data {
		if 2*i+1 >= len(body) {
			break
		}
		a.data[i] = float64(int16(binary.LittleEndian.Uint16(body[2*i:]))) / 256
	}
	if dup {
		for i := 0; i+1 < n; i += 2 {
			copy(a.Row(i+1), a.Row(i))
		}
	}
	return a
}

// FuzzQR checks the row-form QR against the column-form oracle bit for
// bit on fuzzer-chosen shapes and values.
func FuzzQR(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	gauss := func(int, int) float64 { return rng.NormFloat64() }
	// The factored matrix is m×n; its n columns are the input's rows.
	f.Add(qrFuzzInput(4, 5, false, func(i, j int) float64 { // a zero column
		if i == 2 {
			return 0
		}
		return rng.NormFloat64()
	}))
	f.Add(qrFuzzInput(6, 4, true, gauss))   // duplicate columns
	f.Add(qrFuzzInput(9, 3, false, gauss))  // m < n
	f.Add(qrFuzzInput(3, 9, false, gauss))  // n < m
	f.Add(qrFuzzInput(1, 1, false, gauss))  // 1×1
	f.Add(qrFuzzInput(8, 16, false, gauss)) // AMM-sized: 8 buffered rows of d=16
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeQRFuzz(data)
		if a == nil {
			return
		}
		if err := checkQRRowsBits(a); err != nil {
			t.Fatalf("%d×%d: %v", a.rows, a.cols, err)
		}
	})
}

// BenchmarkQR times the co-sketch shrink's QR at its shapes (buffered
// rows × side dimension: ℓ=64 at d_a=192 and d_b=64, ℓ=24 at d_a=48),
// row form against the column form it replaced.
func BenchmarkQR(b *testing.B) {
	for _, s := range [][2]int{{64, 192}, {64, 64}, {24, 48}} {
		a := randDense(rand.New(rand.NewSource(16)), s[0], s[1])
		b.Run(fmt.Sprintf("rows/%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				QRRows(a)
			}
		})
		b.Run(fmt.Sprintf("columns/%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qrColumnForm(a.T())
			}
		})
	}
}
