package mat

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the eigendecomposition of a symmetric matrix a:
// eigenvalues in descending order and the corresponding eigenvectors
// as the columns of v, so that a = v·diag(vals)·vᵀ. The input is not
// modified. It is the transpose of EigenSymRows, the tridiagonal QL
// solver and fast production path; EigenSymJacobi is the slow
// reference.
func EigenSym(a *Dense) (vals []float64, v *Dense) {
	vals, v = EigenSymRows(a)
	transposeSquare(v)
	return vals, v
}

// EigenSymJacobi computes the same decomposition with the cyclic
// Jacobi method: ~10× more flops than QL but unconditionally stable
// and simple enough to audit by eye, which is why the test suite uses
// it to cross-validate the QL path. It panics if a is not square.
func EigenSymJacobi(a *Dense) (vals []float64, v *Dense) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: EigenSym of non-square %d×%d", a.rows, a.cols))
	}
	w := a.Clone()
	v = Identity(n)
	if n <= 1 {
		vals = make([]float64, n)
		if n == 1 {
			vals[0] = w.data[0]
		}
		return vals, v
	}

	const (
		maxSweeps = 64
		tol       = 1e-14
	)
	// Scale of the matrix, for the relative off-diagonal threshold.
	scale := w.MaxAbs()
	if scale == 0 {
		return make([]float64, n), v
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= tol*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if math.Abs(apq) <= tol*scale/float64(n) {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				// Rotation angle: tan(2θ) = 2a_pq / (a_pp − a_qq).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e18 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				applyJacobiRotation(w, v, p, q, c, s)
			}
		}
	}

	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.data[i*n+i]
	}
	sortEigenDesc(vals, v)
	return vals, v
}

// offDiagNorm returns the Frobenius norm of the strictly upper
// triangle of w (w is maintained symmetric).
func offDiagNorm(w *Dense) float64 {
	n := w.rows
	var s float64
	for p := 0; p < n-1; p++ {
		for q := p + 1; q < n; q++ {
			v := w.data[p*n+q]
			s += v * v
		}
	}
	return math.Sqrt(2 * s)
}

// applyJacobiRotation applies the rotation J(p,q,θ) with cos=c, sin=s
// symmetrically to w (JᵀwJ) and accumulates it into v (v·J). The row
// updates for w and v are fused into one pass over k; the mirrored
// column entries are written in the same iteration, keeping the whole
// rotation at two cache-friendly row sweeps.
func applyJacobiRotation(w, v *Dense, p, q int, c, s float64) {
	n := w.rows
	wd, vd := w.data, v.data
	app := wd[p*n+p]
	aqq := wd[q*n+q]
	apq := wd[p*n+q]

	wd[p*n+p] = c*c*app - 2*s*c*apq + s*s*aqq
	wd[q*n+q] = s*s*app + 2*s*c*apq + c*c*aqq
	wd[p*n+q] = 0
	wd[q*n+p] = 0
	wp := wd[p*n : p*n+n]
	wq := wd[q*n : q*n+n]
	for k := 0; k < n; k++ {
		if k == p || k == q {
			continue
		}
		akp := wp[k]
		akq := wq[k]
		nkp := c*akp - s*akq
		nkq := s*akp + c*akq
		wp[k] = nkp
		wq[k] = nkq
		wd[k*n+p] = nkp
		wd[k*n+q] = nkq
	}
	for k := 0; k < n; k++ {
		vkp := vd[k*n+p]
		vkq := vd[k*n+q]
		vd[k*n+p] = c*vkp - s*vkq
		vd[k*n+q] = s*vkp + c*vkq
	}
}

// sortEigenDesc sorts eigenvalues in descending order, permuting the
// columns of v to match.
func sortEigenDesc(vals []float64, v *Dense) {
	n := len(vals)
	idx := descOrder(vals)
	sorted := make([]float64, n)
	perm := NewDense(n, n)
	for newCol, oldCol := range idx {
		sorted[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			perm.data[r*n+newCol] = v.data[r*n+oldCol]
		}
	}
	copy(vals, sorted)
	copy(v.data, perm.data)
}

// descOrder returns the indices of vals sorted by descending value,
// ties in index order.
func descOrder(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx
}
