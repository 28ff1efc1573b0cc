package mat

import (
	"fmt"
	"math"
)

// QRResult holds a thin QR decomposition A = Q·R with Q (rows×k,
// orthonormal columns) and R (k×cols, upper triangular), k = min(rows,
// cols).
type QRResult struct {
	Q *Dense
	R *Dense
}

// QR computes a thin QR decomposition by Householder reflections —
// numerically stabler than Gram-Schmidt for the near-degenerate inputs
// the sketches produce (e.g. FD buffers right after a shrink). It is
// QRRows of aᵀ with Qᵀ transposed back.
func QR(a *Dense) QRResult {
	qt, r := QRRows(a.T())
	return QRResult{Q: qt.T(), R: r}
}

// QRRows computes the thin Householder QR of aᵀ = Q·R from a itself:
// a is n×m and its rows are the n columns to factor, each of length m.
// It returns Qᵀ (k×m, orthonormal rows) and R (k×n, upper triangular),
// k = min(m, n). Working on rows keeps every reflector's dot product
// and update on one contiguous slice, which is what the co-sketch
// shrink wants: its row buffers are already the columns it factors.
//
// The result is bit-identical to the column-form Householder QR of aᵀ:
// every sum runs in the same sequential order with the same expression
// shapes (no reassociating kernels), and building Q skips only columns
// c < j for reflector j, which are still exact +0 identity columns
// there — for finite inputs the skipped updates would subtract +0·v
// from +0 and leave them unchanged.
func QRRows(a *Dense) (qt, r *Dense) {
	n, m := a.Dims()
	k := m
	if n < k {
		k = n
	}
	w := a.Clone() // row c is column c of the matrix being reduced
	// vs and vsqs store the Householder vectors and their squared
	// norms; vs[j] == nil marks a skipped (zero) reflector.
	vs := make([][]float64, k)
	vsqs := make([]float64, k)

	for j := 0; j < k; j++ {
		// Build the reflector for column j below the diagonal.
		v := make([]float64, m-j)
		copy(v, w.data[j*m+j:(j+1)*m])
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
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
			continue
		}
		// Apply (I − 2vvᵀ/vᵀv) to the trailing columns.
		for c := j; c < n; c++ {
			applyReflector(w.data[c*m+j:(c+1)*m], v, vsq)
		}
		vs[j], vsqs[j] = v, vsq
	}

	// Copy out the upper triangle of R (the strictly-lower part is
	// round-off residue) and trim to k rows.
	r = NewDense(k, n)
	for i := 0; i < k; i++ {
		ri := r.data[i*n : (i+1)*n]
		for c := i; c < n; c++ {
			ri[c] = w.data[c*m+i]
		}
	}

	// Build Qᵀ by applying the reflectors in reverse to the first k
	// rows of the identity. Reflector j touches entries j..m-1 only,
	// and rows c < j are still e_c there, so they are skipped.
	qt = NewDense(k, m)
	for j := 0; j < k; j++ {
		qt.data[j*m+j] = 1
	}
	for j := k - 1; j >= 0; j-- {
		v := vs[j]
		if v == nil {
			continue
		}
		for c := j; c < k; c++ {
			applyReflector(qt.data[c*m+j:(c+1)*m], v, vsqs[j])
		}
	}
	return qt, r
}

// applyReflector overwrites x with (I − 2vvᵀ/vsq)·x, len(x) == len(v).
// The sums stay sequential: QRRows' bit-identity depends on it.
func applyReflector(x, v []float64, vsq float64) {
	x = x[:len(v)]
	var dot float64
	for i, vi := range v {
		dot += vi * x[i]
	}
	f := 2 * dot / vsq
	for i, vi := range v {
		x[i] = x[i] - f*vi
	}
}

// OrthonormalRows returns a k×d matrix with orthonormal rows spanning
// the row space of a's first k rows (k = min(rows, cols) when k ≤ 0).
// It is the library's canonical way to build orthonormal bases (used
// by the synthetic data generator and the PCA utilities).
func OrthonormalRows(a *Dense, k int) *Dense {
	m, d := a.Dims()
	lim := m
	if d < lim {
		lim = d
	}
	if k <= 0 || k > lim {
		k = lim
	}
	qt, _ := QRRows(a)
	return NewDenseData(k, d, qt.data[:k*d])
}

// checkQRShapes is used by tests; exported logic stays above.
func checkQRShapes(a *Dense, res QRResult) error {
	m, n := a.Dims()
	k := m
	if n < k {
		k = n
	}
	if qr, qc := res.Q.Dims(); qr != m || qc != k {
		return fmt.Errorf("mat: Q is %d×%d, want %d×%d", qr, qc, m, k)
	}
	if rr, rc := res.R.Dims(); rr != k || rc != n {
		return fmt.Errorf("mat: R is %d×%d, want %d×%d", rr, rc, k, n)
	}
	return nil
}
