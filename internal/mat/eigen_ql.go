package mat

import (
	"fmt"
	"math"
)

// EigenSymRows computes the eigendecomposition of a symmetric matrix
// by Householder reduction to tridiagonal form followed by the
// implicit-shift QL iteration (the classic EISPACK tred2/tql2 pair),
// ~2n³ flops against Jacobi's ~10n³–30n³. It returns the eigenvalues in
// descending order and vt, whose rows are the matching eigenvectors,
// so that a = vtᵀ·diag(vals)·vt. Only the lower triangle of a is read;
// a is not modified. This is the production path (EigenSym is its
// transpose); the FD shrinks want the rows, since they rebuild the
// survivors as Uᵀ·B.
//
// Every O(n³) loop runs over whole contiguous rows, through the vector
// kernels where they are active, and the result is bit-identical to
// the scalar column-form tred2/tql2 it replaced. Each output element
// is the same IEEE expression summed in the same order; only the
// layout and the loop nesting changed:
//
//   - the active block of the reduction is kept fully symmetric, so
//     p = A·u is a gaxpy over rows (p[j] += A[k][j]·u[k], k ascending:
//     the old dot-product order for every p[j]);
//   - the rank-2 update A −= u·e'ᵀ + e'·uᵀ runs over whole rows: the
//     mirrored entry (u_j·e'_k)+(e'_j·u_k) equals the old lower one
//     (u_k·e'_j)+(e'_k·u_j) bit for bit, as IEEE × and + commute;
//   - the transformation accumulation is the same gaxpy plus one axpy
//     per row, and the QL rotations turn rows i, i+1 of Vᵀ instead of
//     columns of V.
//
// The kernels multiply and add in separate instructions (no FMA), so
// they round exactly like the Go loops.
func EigenSymRows(a *Dense) (vals []float64, vt *Dense) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: EigenSymRows of non-square %d×%d", a.rows, a.cols))
	}
	vt = a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	if n == 0 {
		return d, vt
	}
	mirrorLower(vt)
	tred2(vt.data, n, d, e)
	transposeSquare(vt)
	tql2(d, e, vt.data, n)
	sortEigenRowsDesc(d, vt)
	return d, vt
}

// tred2 reduces the symmetric matrix stored in v (n×n row-major, both
// triangles equal) to tridiagonal form with diagonal d and sub-diagonal
// e (e[0] unused), overwriting v with the accumulated orthogonal
// transformation Q such that Qᵀ·A·Q = tridiag(d, e).
func tred2(v []float64, n int, d, e []float64) {
	for i := n - 1; i > 0; i-- {
		l := i - 1
		row := v[i*n : i*n+i] // elements 0..l; becomes the reflector u
		if l == 0 {
			e[i] = row[0]
			d[i] = 0
			continue
		}
		var scale float64
		for _, x := range row {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = row[l]
			d[i] = 0
			continue
		}
		if inv := 1 / scale; math.IsInf(inv, 0) {
			// A subnormal scale overflows its reciprocal, and scaling
			// by +Inf would turn the row, and then every eigenvalue,
			// into NaN. The division runs only in that case, so every
			// result that was finite before keeps its bits.
			for k := range row {
				row[k] /= scale
			}
		} else {
			for k := range row {
				row[k] *= inv
			}
		}
		var h float64
		for _, x := range row {
			h += x * x
		}
		f := row[l]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		row[l] = f - g

		// p = A·u over the active block, accumulated in e[0..l]; the
		// scaled reflector u/h goes to column i for the accumulation.
		p := e[:i]
		for j := range p {
			p[j] = 0
		}
		gaxpyRows(p, v, n, row)
		f = 0
		for j := range p {
			v[j*n+i] = row[j] / h
			p[j] /= h
			f += p[j] * row[j]
		}
		hh := f / (h + h)
		for j := range p {
			p[j] -= hh * row[j]
		}
		rank2Rows(v, n, row, p)
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	// Accumulate the transformations: for each reflector, g = uᵀ·Q over
	// the leading block, then Q −= (u/h)·gᵀ row by row.
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		if d[i] != 0 {
			gi := g[:i]
			for j := range gi {
				gi[j] = 0
			}
			gaxpyRows(gi, v, n, v[i*n:i*n+i])
			axpySubRows(v, n, i, gi)
		}
		d[i] = v[i*n+i]
		v[i*n+i] = 1
		for j := 0; j < i; j++ {
			v[j*n+i] = 0
			v[i*n+j] = 0
		}
	}
}

// tql2 diagonalises the symmetric tridiagonal matrix (d, e) with the
// implicit-shift QL algorithm, accumulating rotations into the rows of
// vt (which on entry holds the transpose of the tred2 transformation).
// On exit d holds the eigenvalues (unsorted) and the rows of vt the
// eigenvectors.
func tql2(d, e []float64, vt []float64, n int) {
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
				rotRows(vt[i*n:(i+1)*n], vt[(i+1)*n:(i+2)*n], c, s)
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

// gaxpyRows adds Σₖ u[k]·v[k][0:len(p)] to p, where v is row-major
// with n columns: every p[j] sums its terms in ascending k, four rows
// per pass so p stays in registers.
func gaxpyRows(p, v []float64, n int, u []float64) {
	m := len(p)
	if m == 0 {
		return
	}
	m4 := 0
	if kernelsASM {
		m4 = m &^ 3
	}
	k := 0
	for ; k+3 < len(u); k += 4 {
		u0, u1, u2, u3 := u[k], u[k+1], u[k+2], u[k+3]
		r0 := v[k*n : k*n+m]
		r1 := v[(k+1)*n : (k+1)*n+m]
		r2 := v[(k+2)*n : (k+2)*n+m]
		r3 := v[(k+3)*n : (k+3)*n+m]
		if m4 > 0 {
			mulAdd4(&p[0], &r0[0], &r1[0], &r2[0], &r3[0], m4, u0, u1, u2, u3)
		}
		for j := m4; j < m; j++ {
			x := p[j]
			x += r0[j] * u0
			x += r1[j] * u1
			x += r2[j] * u2
			x += r3[j] * u3
			p[j] = x
		}
	}
	for ; k < len(u); k++ {
		uk := u[k]
		rk := v[k*n : k*n+m]
		for j, r := range rk {
			p[j] += r * uk
		}
	}
}

// rank2Rows applies A[j][k] −= u[j]·q[k] + q[j]·u[k] to the leading
// len(u)×len(u) block of the row-major n-column v, two rows per pass.
func rank2Rows(v []float64, n int, u, q []float64) {
	m := len(u)
	q = q[:m]
	m4 := 0
	if kernelsASM {
		m4 = m &^ 3
	}
	j := 0
	for ; j+1 < m; j += 2 {
		w0 := v[j*n : j*n+m]
		w1 := v[(j+1)*n : (j+1)*n+m]
		u0, q0, u1, q1 := u[j], q[j], u[j+1], q[j+1]
		if m4 > 0 {
			rank2Sub2(&w0[0], &w1[0], &u[0], &q[0], m4, u0, q0, u1, q1)
		}
		for k := m4; k < m; k++ {
			qk, uk := q[k], u[k]
			w0[k] -= u0*qk + q0*uk
			w1[k] -= u1*qk + q1*uk
		}
	}
	if j < m {
		w := v[j*n : j*n+m]
		uj, qj := u[j], q[j]
		for k, qk := range q {
			w[k] -= uj*qk + qj*u[k]
		}
	}
}

// axpySubRows applies v[k][j] −= v[k][c]·g[j] for every row k < c of
// the row-major n-column v and every j < len(g): the rank-1 update of
// the accumulation, with column c holding the scaled reflector.
func axpySubRows(v []float64, n, c int, g []float64) {
	m := len(g)
	m4 := 0
	if kernelsASM {
		m4 = m &^ 3
	}
	for k := 0; k < c; k++ {
		w := v[k*n : k*n+m]
		a := v[k*n+c]
		if m4 > 0 {
			mulSub(&w[0], &g[0], m4, a)
		}
		for j := m4; j < m; j++ {
			w[j] -= a * g[j]
		}
	}
}

// rotRows applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y)
// element-wise to two equal-length rows.
func rotRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	m4 := 0
	if kernelsASM {
		m4 = len(x) &^ 3
	}
	if m4 > 0 {
		rot(&x[0], &y[0], m4, c, s)
	}
	for k := m4; k < len(x); k++ {
		a, b := x[k], y[k]
		y[k] = s*a + c*b
		x[k] = c*a - s*b
	}
}

// mirrorLower copies the strict lower triangle of the square matrix m
// onto the upper one.
func mirrorLower(m *Dense) {
	n := m.rows
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.data[j*n+i] = m.data[i*n+j]
		}
	}
}

// transposeSquare transposes the square matrix m in place.
func transposeSquare(m *Dense) {
	n := m.rows
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.data[i*n+j], m.data[j*n+i] = m.data[j*n+i], m.data[i*n+j]
		}
	}
}

// sortEigenRowsDesc sorts eigenvalues in descending order, permuting
// the rows of vt to match.
func sortEigenRowsDesc(vals []float64, vt *Dense) {
	n := len(vals)
	idx := descOrder(vals)
	sorted := make([]float64, n)
	perm := make([]float64, n*n)
	for newRow, oldRow := range idx {
		sorted[newRow] = vals[oldRow]
		copy(perm[newRow*n:(newRow+1)*n], vt.data[oldRow*n:(oldRow+1)*n])
	}
	copy(vals, sorted)
	copy(vt.data, perm)
}
