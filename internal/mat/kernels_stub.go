//go:build !amd64

package mat

// Stubs so the kernel call sites compile on non-amd64 targets.
// kernelsASM is never set there, so none of these are reachable.

func dotTile2x4(x0, x1, y0, y1, y2, y3 *float64, n int, out *[8]float64) {
	panic("mat: assembly kernel on non-amd64")
}

func axpy4x2(a *[8]float64, b0, b1, o0, o1, o2, o3 *float64, n int) {
	panic("mat: assembly kernel on non-amd64")
}

func symv2(r0, r1, u, pp *float64, n int, uk0, uk1 float64) (g0, g1 float64) {
	panic("mat: assembly kernel on non-amd64")
}

func rank2upd2(w0, w1, u, q *float64, n int, u0, q0, u1, q1 float64) {
	panic("mat: assembly kernel on non-amd64")
}

func dot2(u, a, b *float64, n int) (s0, s1 float64) {
	panic("mat: assembly kernel on non-amd64")
}

func axpy2(g0, g1 float64, u, a, b *float64, n int) {
	panic("mat: assembly kernel on non-amd64")
}

func mulAdd4(p, r0, r1, r2, r3 *float64, n int, u0, u1, u2, u3 float64) {
	panic("mat: assembly kernel on non-amd64")
}

func rank2Sub2(w0, w1, u, q *float64, n int, u0, q0, u1, q1 float64) {
	panic("mat: assembly kernel on non-amd64")
}

func mulSub(w, x *float64, n int, a float64) {
	panic("mat: assembly kernel on non-amd64")
}

func rot(x, y *float64, n int, c, s float64) {
	panic("mat: assembly kernel on non-amd64")
}
