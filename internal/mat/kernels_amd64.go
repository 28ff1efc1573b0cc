package mat

func init() {
	kernelsASM = detectAVX2FMA()
}

// detectAVX2FMA checks, in order: CPUID leaf 7 exists; the FMA, AVX
// and OSXSAVE feature bits; that the OS has enabled YMM state saving
// (XCR0 bits 1 and 2 — without this executing an AVX instruction
// faults even on capable silicon); and finally AVX2 itself.
func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	_, _, c, _ := cpuidex(1, 0)
	if c&fmaBit == 0 || c&osxsaveBit == 0 || c&avxBit == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0
}

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// dotTile2x4 accumulates the eight dot products of {x0,x1}×{y0..y3}
// over the first n elements (n must be a multiple of 4) into out,
// ordered row-major: x0·y0, x0·y1, x0·y2, x0·y3, x1·y0, …
//
//go:noescape
func dotTile2x4(x0, x1, y0, y1, y2, y3 *float64, n int, out *[8]float64)

// axpy4x2 applies o_r += a[2r]·b0 + a[2r+1]·b1 for the four output
// rows over the first n elements (n must be a multiple of 4).
//
//go:noescape
func axpy4x2(a *[8]float64, b0, b1, o0, o1, o2, o3 *float64, n int)

// symv2 performs the fused two-row symmetric matrix–vector step of
// the tridiagonal reduction over the first n elements (n a multiple
// of 4): pp[t] += r0[t]·uk0 + r1[t]·uk1, and returns the running dot
// products g0 = Σ r0[t]·u[t], g1 = Σ r1[t]·u[t].
//
//go:noescape
func symv2(r0, r1, u, pp *float64, n int, uk0, uk1 float64) (g0, g1 float64)

// rank2upd2 applies the two-row symmetric rank-2 update over the
// first n elements (n a multiple of 4):
// w0[t] -= u0·q[t] + q0·u[t]; w1[t] -= u1·q[t] + q1·u[t].
//
//go:noescape
func rank2upd2(w0, w1, u, q *float64, n int, u0, q0, u1, q1 float64)

// dot2 returns the two dot products u·a and u·b over the first n
// elements (n a multiple of 4).
//
//go:noescape
func dot2(u, a, b *float64, n int) (s0, s1 float64)

// axpy2 applies a[t] -= g0·u[t]; b[t] -= g1·u[t] over the first n
// elements (n a multiple of 4).
//
//go:noescape
func axpy2(g0, g1 float64, u, a, b *float64, n int)

// The kernels below serve the classic eigensolver (EigenSymRows),
// whose output bits are pinned. They use AVX only and never fuse: each
// element is one VMULPD then one VADDPD or VSUBPD, the same rounding
// as the Go loop it replaces, so they run on every host that has the
// FMA kernels above and give the same bits as the portable code.

// mulAdd4 applies p[t] = (((p[t] + r0[t]·u0) + r1[t]·u1) + r2[t]·u2) +
// r3[t]·u3 over the first n elements (n a multiple of 4).
//
//go:noescape
func mulAdd4(p, r0, r1, r2, r3 *float64, n int, u0, u1, u2, u3 float64)

// rank2Sub2 applies w0[t] −= u0·q[t] + q0·u[t] and w1[t] −= u1·q[t] +
// q1·u[t] over the first n elements (n a multiple of 4).
//
//go:noescape
func rank2Sub2(w0, w1, u, q *float64, n int, u0, q0, u1, q1 float64)

// mulSub applies w[t] −= a·x[t] over the first n elements (n a
// multiple of 4).
//
//go:noescape
func mulSub(w, x *float64, n int, a float64)

// rot applies (x[t], y[t]) ← (c·x[t] − s·y[t], s·x[t] + c·y[t]) over
// the first n elements (n a multiple of 4).
//
//go:noescape
func rot(x, y *float64, n int, c, s float64)
