package mat

// Vector kernels behind the FD shrinks. On amd64 hosts with AVX2+FMA
// the hot inner loops dispatch to hand-written assembly
// (kernels_amd64.s), detected at startup via CPUID; everywhere else —
// and on amd64 without those extensions — the portable scalar
// formulations run unchanged.
//
// There are two families. The FastFD kernels fuse multiplies and adds,
// so their rounding differs from the scalar code in the last bits;
// only the FastFD (b>1 or α<1) pipeline and SymEigTopK reach them,
// because the legacy b=1, α=1 FD path and everything persisted from
// it must stay bit-stable across releases. The classic eigensolver's
// kernels (EigenSymRows) never fuse: each element is a separate
// multiply then add or subtract, exactly the Go expression, so they
// give the same bits as the portable loops and the pinned path may
// use them.

// kernelsASM reports whether the assembly kernels are active. It is a
// variable, not a constant, so tests can force the scalar path and
// verify both implementations agree.
var kernelsASM = false

// KernelsAccelerated reports whether the assembly kernels are active
// on this host (amd64 with AVX2+FMA). Observability surfaces report it
// so benchmark artifacts record which backend ran.
func KernelsAccelerated() bool { return kernelsASM }

// MulTiledTo computes dst = a·b like MulTo, but through the FMA tile
// kernel when it is available. Accumulation order and rounding differ
// from MulTo, so bit-stable callers (the legacy FD shrink) must keep
// using MulTo; the FastFD pipeline, which only promises the FD error
// bound, uses this.
func MulTiledTo(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: MulTiledTo inner dimension mismatch")
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic("mat: MulTiledTo destination shape mismatch")
	}
	if !kernelsASM || b.cols < 4 {
		return MulTo(dst, a, b)
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	ac, bc := a.cols, b.cols
	m := bc &^ 3
	i := 0
	for ; i+3 < a.rows; i += 4 {
		o0 := dst.data[i*bc : i*bc+bc]
		o1 := dst.data[(i+1)*bc : (i+1)*bc+bc]
		o2 := dst.data[(i+2)*bc : (i+2)*bc+bc]
		o3 := dst.data[(i+3)*bc : (i+3)*bc+bc]
		k := 0
		for ; k+1 < ac; k += 2 {
			co := [8]float64{
				a.data[i*ac+k], a.data[i*ac+k+1],
				a.data[(i+1)*ac+k], a.data[(i+1)*ac+k+1],
				a.data[(i+2)*ac+k], a.data[(i+2)*ac+k+1],
				a.data[(i+3)*ac+k], a.data[(i+3)*ac+k+1],
			}
			b0 := b.data[k*bc : k*bc+bc]
			b1 := b.data[(k+1)*bc : (k+1)*bc+bc]
			axpy4x2(&co, &b0[0], &b1[0], &o0[0], &o1[0], &o2[0], &o3[0], m)
			for j := m; j < bc; j++ {
				v0, v1 := b0[j], b1[j]
				o0[j] += co[0]*v0 + co[1]*v1
				o1[j] += co[2]*v0 + co[3]*v1
				o2[j] += co[4]*v0 + co[5]*v1
				o3[j] += co[6]*v0 + co[7]*v1
			}
		}
		if k < ac {
			b0 := b.data[k*bc : k*bc+bc]
			for r := 0; r < 4; r++ {
				av := a.data[(i+r)*ac+k]
				or := dst.data[(i+r)*bc : (i+r)*bc+bc]
				for j, bv := range b0 {
					or[j] += av * bv
				}
			}
		}
	}
	for ; i < a.rows; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		orow := dst.data[i*bc : (i+1)*bc]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*bc : k*bc+bc]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}
