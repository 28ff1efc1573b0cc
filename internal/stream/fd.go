package stream

import (
	"fmt"
	"math"

	"swsketch/internal/mat"
	"swsketch/internal/trace"
)

// FD is the FrequentDirections sketch of Liberty (KDD 2013) as
// described in Section 3: a deterministic ℓ×d sketch maintained by
// periodic SVD-and-shrink steps. It guarantees
//
//	‖AᵀA − BᵀB‖₂ ≤ 2‖A‖²_F / ℓ
//
// and is mergeable (Section 6.1), which the LM framework relies on.
//
// The shrink step uses the Gram trick: it eigendecomposes the smaller
// of BBᵀ and BᵀB instead of running a full SVD of the buffer, then
// rebuilds the surviving rows as rescaled combinations. This keeps the
// per-shrink cost O(ℓ²d + ℓ³) and the amortised update cost O(ℓd).
//
// # The FastFD working buffer
//
// By default the buffer holds exactly ℓ rows and shrinks as soon as it
// refills, so every ℓ−⌈ℓ/2⌉ appended rows pay one O(ℓ²d)
// decomposition. FDOpts.Buffer widens the working buffer to b·ℓ rows
// (the doubled-buffer discipline of Desai–Ghashami–Phillips, "Improved
// Practical Matrix Sketching with Guarantees"): shrinks become b−½
// times rarer while each costs only O((bℓ)²d), a net win for b=2 of
// 2–5× per row in practice. FDOpts.Alpha tunes how deep each shrink
// cuts. Neither knob affects the covariance guarantee above: every
// shrink still subtracts at least ⌈ℓ/2⌉·λ of squared Frobenius mass
// per λ it charges, which is all the 2‖A‖²_F/ℓ bound needs (the
// buffer only ever holds MORE information than the ℓ-row sketch the
// bound is stated for). RowsStored still reports ℓ — the paper's
// space-accounting measure — with the working buffer a constant-factor
// implementation detail, exposed via Stats as buffer_cap.
//
// The buffer is grown lazily from ℓ toward b·ℓ, so sketches that
// never fill (e.g. small LM blocks) keep the classic memory footprint.
type FD struct {
	ell   int // sketch size: the rows-stored measure and shrink target scale
	d     int
	bfac  int     // working-buffer factor b ≥ 1
	alpha float64 // shrink aggressiveness α ∈ (0,1]; 1 = classic halving
	m     int     // working-buffer capacity b·ℓ

	buf  *mat.Dense // working buffer; grows lazily ℓ → b·ℓ rows
	used int        // rows of buf currently occupied

	// spare is the shrink's rebuild target, reused across calls to
	// keep the steady-state update path allocation-free in the large
	// working buffers.
	spare *mat.Dense

	// shrinks counts SVD-and-shrink steps — the practical cost driver
	// Desai–Ghashami–Phillips observe diverging from worst-case bounds,
	// exported for instrumentation via Shrinks/Stats.
	shrinks uint64

	// lastAmort is the previous shrink's amortization factor: appended
	// rows absorbed per shrink relative to the classic (b=1) cadence
	// with the same survivor count. Exposed via Stats.
	lastAmort float64

	// delta accumulates the λ charged by every shrink so far: the
	// sketch's covariance error is at most Σλ, the quantity the
	// dump-snapshot framework budgets against. Not persisted — callers
	// that need it across snapshots track their own watermark.
	delta float64

	// Fast-path scratch, allocated on the first non-classic shrink and
	// reused for every one after: the partial eigensolver with its
	// workspace, the Gram buffer, and (n-side only) the Uᵀ factor.
	eig  mat.SymEigTopK
	gram *mat.Dense
	ut   *mat.Dense

	tr *trace.Tracer
}

// FDOpts configures the FastFD buffer discipline. The zero value
// selects the classic cadence (b=1, α=1), keeping existing configs —
// and their v1 snapshot bytes — unchanged.
type FDOpts struct {
	// Buffer is the working-buffer factor b: the sketch buffers up to
	// Buffer·ℓ rows between shrinks. 0 and 1 both mean the classic
	// shrink-on-full cadence; 2 is the FastFD setting the benchmarks
	// recommend. Negative values panic.
	Buffer int
	// Alpha is the shrink aggressiveness α ∈ (0,1]: each shrink
	// charges λ = σ²_{idx} with idx interpolated from ℓ (α→0, cut as
	// little as the bound allows) down to ⌈ℓ/2⌉ (α=1, the classic
	// halving). 0 means 1. Values outside (0,1] panic.
	Alpha float64
}

// Normalize resolves the zero-value defaults (b=1, α=1) and panics on
// out-of-range fields — the same validation NewFDOpts applies, exposed
// so constructors that capture an FDOpts in a factory closure can fail
// fast instead of on the first block sketch.
func (o FDOpts) Normalize() FDOpts {
	if o.Buffer < 0 {
		panic(fmt.Sprintf("stream: FD needs buffer factor ≥ 0, got %d", o.Buffer))
	}
	if o.Buffer == 0 {
		o.Buffer = 1
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if !(o.Alpha > 0 && o.Alpha <= 1) {
		panic(fmt.Sprintf("stream: FD needs alpha in (0,1], got %v", o.Alpha))
	}
	return o
}

// SetTracer attaches a tracer; each shrink emits an fd_shrink span.
func (f *FD) SetTracer(tr *trace.Tracer) { f.tr = tr }

// NewFD returns a FrequentDirections sketch with at most ell rows over
// dimension d, using the classic shrink cadence. It panics unless
// ell ≥ 2 and d ≥ 1.
func NewFD(ell, d int) *FD {
	return NewFDOpts(ell, d, FDOpts{})
}

// NewFDOpts returns a FrequentDirections sketch with the given buffer
// discipline. It panics unless ell ≥ 2, d ≥ 1, o.Buffer ≥ 0, and
// o.Alpha ∈ {0} ∪ (0,1].
func NewFDOpts(ell, d int, o FDOpts) *FD {
	if ell < 2 {
		panic(fmt.Sprintf("stream: FD needs ell ≥ 2, got %d", ell))
	}
	if d < 1 {
		panic(fmt.Sprintf("stream: FD needs d ≥ 1, got %d", d))
	}
	o = o.Normalize()
	return &FD{
		ell:   ell,
		d:     d,
		bfac:  o.Buffer,
		alpha: o.Alpha,
		m:     o.Buffer * ell,
		buf:   mat.NewDense(ell, d),
	}
}

// ensureRoom makes at least one buffer row free: grow the lazy buffer
// toward b·ℓ first, and only shrink once the full working capacity is
// occupied.
func (f *FD) ensureRoom() {
	if f.used < f.buf.Rows() {
		return
	}
	if f.buf.Rows() < f.m {
		f.grow()
		return
	}
	f.shrink()
}

// grow doubles the buffer capacity (capped at b·ℓ), preserving the
// occupied rows.
func (f *FD) grow() {
	rows := f.buf.Rows() * 2
	if rows > f.m {
		rows = f.m
	}
	nb := mat.NewDense(rows, f.d)
	copy(nb.Data(), f.buf.Data()[:f.used*f.d])
	f.buf = nb
}

// Update inserts one row, shrinking first if the working buffer is
// full.
func (f *FD) Update(row []float64) {
	if len(row) != f.d {
		panic(fmt.Sprintf("stream: FD row length %d, want %d", len(row), f.d))
	}
	f.ensureRoom()
	copy(f.buf.Row(f.used), row)
	f.used++
}

// UpdateBatch inserts rows in order, filling whole runs of free buffer
// slots between shrinks instead of re-entering Update per row. The
// result is identical to row-at-a-time insertion (a shrink happens
// exactly when the working buffer is full and another row remains),
// but the per-row interface and bounds overhead is paid once per run.
func (f *FD) UpdateBatch(rows [][]float64) {
	for i, r := range rows {
		if len(r) != f.d {
			panic(fmt.Sprintf("stream: FD batch row %d length %d, want %d", i, len(r), f.d))
		}
	}
	i := 0
	for i < len(rows) {
		f.ensureRoom()
		n := f.buf.Rows() - f.used
		if rest := len(rows) - i; n > rest {
			n = rest
		}
		dst := f.buf.Data()[f.used*f.d:]
		for j := 0; j < n; j++ {
			copy(dst[j*f.d:(j+1)*f.d], rows[i+j])
		}
		f.used += n
		i += n
	}
}

// UpdateDense inserts the rows of a dense block in order — the bulk
// ingest path for callers that already hold contiguous row-major data
// (Merge, the distributed decode path). Equivalent to UpdateBatch on
// the block's rows, but each run between shrinks is one contiguous
// copy with no [][]float64 row headers.
func (f *FD) UpdateDense(block *mat.Dense) {
	if block.Cols() != f.d {
		panic(fmt.Sprintf("stream: FD dense block has %d columns, want %d", block.Cols(), f.d))
	}
	total := block.Rows()
	src := block.Data()
	i := 0
	for i < total {
		f.ensureRoom()
		n := f.buf.Rows() - f.used
		if rest := total - i; n > rest {
			n = rest
		}
		copy(f.buf.Data()[f.used*f.d:(f.used+n)*f.d], src[i*f.d:(i+n)*f.d])
		f.used += n
		i += n
	}
}

// shrinkIdx returns the (1-based) index of the squared singular value
// charged as λ: interpolated by α from ℓ (cut as little as possible)
// down to ⌈ℓ/2⌉ (classic halving). Survivors number at most
// shrinkIdx−1, so a shrink always frees buffer rows.
func (f *FD) shrinkIdx() int {
	half := (f.ell + 1) / 2
	return f.ell - int(math.Floor(f.alpha*float64(f.ell-half)))
}

// shrinkLambda picks λ = σ²_{idx} out of the descending eigenvalue
// slice, falling back to the smallest eigenvalue (clamped to 0) when
// the spectrum is shorter than idx or σ²_{idx} vanishes.
func shrinkLambda(vals []float64, idx int) float64 {
	if idx-1 < len(vals) && vals[idx-1] > 0 {
		return vals[idx-1]
	}
	if len(vals) > 0 {
		return math.Max(vals[len(vals)-1], 0)
	}
	return 0
}

// shrink removes at least the λ-weighted tail of the occupied rows:
// eigendecompose the working buffer's Gram matrix, subtract
// λ = σ²_{idx(α)} from every squared singular value, and keep the
// surviving directions. The classic configuration (b=1, α=1) runs the
// exact historical code path, bit-for-bit; wider buffers take the fast
// path built on the partial eigensolver.
func (f *FD) shrink() {
	n := f.used
	if n == 0 {
		return
	}
	f.shrinks++
	sp := f.tr.Start("FD", trace.KindFDShrink, 0)
	if f.spare == nil || f.spare.Rows() != f.buf.Rows() {
		f.spare = mat.NewDense(f.buf.Rows(), f.d)
	}
	sub := mat.NewDenseData(n, f.d, f.buf.Data()[:n*f.d])

	var kept int
	if f.bfac == 1 && f.alpha == 1 {
		kept = f.shrinkClassic(sub, n)
	} else {
		kept = f.shrinkFast(sub, n)
	}
	f.buf, f.spare = f.spare, f.buf
	f.used = kept
	f.lastAmort = float64(n-kept) / float64(f.ell-kept)
	if sp.Active() {
		sp.EndNote(float64(n), float64(kept),
			fmt.Sprintf("occ=%d/%d amort=%.2f b=%d alpha=%g", n, f.m, f.lastAmort, f.bfac, f.alpha))
	}
}

// shrinkClassic is the historical single-buffer shrink: eigendecompose
// BBᵀ (ℓ×ℓ) with the full QL solver and rebuild survivors as UᵀB. Its
// output bits are pinned, so classic sketches stay bit-identical
// across versions.
func (f *FD) shrinkClassic(sub *mat.Dense, n int) int {
	vals, ut := mat.EigenSymRows(sub.GramT()) // n×n, descending σ², rows = eigenvectors

	lambda := shrinkLambda(vals, f.shrinkIdx())
	f.delta += lambda

	// Count the surviving directions: the prefix of eigenvalues with
	// σ²_k > λ (vals is descending).
	kept := 0
	for kept < n && vals[kept] > lambda && vals[kept] > 0 {
		kept++
	}

	out := f.spare
	if kept > 0 {
		// Surviving rows in one shot: rows = Uᵀ·sub over the first kept
		// eigenvector rows, computed by the blocked kernel into a
		// kept×d view of the spare buffer, then rescaled per row by
		// sqrt((σ²_k − λ)/σ²_k).
		dst := mat.NewDenseData(kept, f.d, out.Data()[:kept*f.d])
		mat.MulTo(dst, mat.NewDenseData(kept, n, ut.Data()[:kept*n]), sub)
		for k := 0; k < kept; k++ {
			s2 := vals[k]
			scale := math.Sqrt((s2 - lambda) / s2)
			rk := dst.Row(k)
			for j := range rk {
				rk[j] *= scale
			}
		}
	}
	zeroTail(out, kept, f.d)
	return kept
}

// shrinkFast is the wide-buffer shrink. It works on the smaller Gram
// side — BᵀB (d×d) when the buffer has at least d rows, BBᵀ (n×n)
// otherwise — with the reusable partial eigensolver: all eigenvalues
// (λ needs the spectrum) but only the surviving eigenvectors. On the
// d side the survivors are rebuilt directly as sqrt(σ²−λ)·vᵀ with no
// matrix product at all; on the n side as rescaled rows of UᵀB. All
// scratch is reused across shrinks, so the steady state allocates
// nothing.
func (f *FD) shrinkFast(sub *mat.Dense, n int) int {
	d := f.d
	dSide := n >= d
	if f.gram == nil {
		if dSide {
			f.gram = mat.NewDense(d, d)
		} else {
			f.gram = mat.NewDense(n, n)
		}
	}
	if dSide {
		mat.GramInto(f.gram, sub)
	} else {
		mat.GramTTiledInto(f.gram, sub)
	}
	vals := f.eig.Values(f.gram)

	lambda := shrinkLambda(vals, f.shrinkIdx())
	f.delta += lambda
	kept := 0
	for kept < len(vals) && vals[kept] > lambda && vals[kept] > 0 {
		kept++
	}

	out := f.spare
	if kept > 0 {
		if dSide {
			// B' rows are sqrt(σ²−λ)·vᵀ for the top eigenvectors v of
			// BᵀB, written straight into the spare buffer.
			vt := mat.NewDenseData(kept, d, out.Data()[:kept*d])
			f.eig.VectorsTInto(vt)
			for k := 0; k < kept; k++ {
				scale := math.Sqrt(vals[k] - lambda)
				rk := vt.Row(k)
				for j := range rk {
					rk[j] *= scale
				}
			}
		} else {
			if f.ut == nil {
				f.ut = mat.NewDense(f.ell, f.m)
			}
			ut := mat.NewDenseData(kept, n, f.ut.Data()[:kept*n])
			f.eig.VectorsTInto(ut)
			dst := mat.NewDenseData(kept, d, out.Data()[:kept*d])
			mat.MulTiledTo(dst, ut, sub)
			for k := 0; k < kept; k++ {
				s2 := vals[k]
				scale := math.Sqrt((s2 - lambda) / s2)
				rk := dst.Row(k)
				for j := range rk {
					rk[j] *= scale
				}
			}
		}
	}
	zeroTail(out, kept, f.d)
	return kept
}

// zeroTail clears the rows of out from kept to its capacity.
func zeroTail(out *mat.Dense, kept, d int) {
	tail := out.Data()[kept*d:]
	for i := range tail {
		tail[i] = 0
	}
}

// Matrix returns the occupied rows of the buffer as the approximation
// B. With a widened working buffer the row count can reach b·ℓ; the
// covariance guarantee holds regardless (the buffer holds strictly
// more of the stream than the ℓ-row sketch the bound is stated for).
func (f *FD) Matrix() *mat.Dense {
	out := mat.NewDense(f.used, f.d)
	copy(out.Data(), f.buf.Data()[:f.used*f.d])
	return out
}

// RowsStored reports the sketch size ℓ, the measure used by the
// paper's experiments. The working buffer's b·ℓ rows are a
// constant-factor implementation detail (Stats reports them as
// buffer_cap).
func (f *FD) RowsStored() int { return f.ell }

// Used reports the number of occupied rows.
func (f *FD) Used() int { return f.used }

// Ell returns the configured sketch size.
func (f *FD) Ell() int { return f.ell }

// BufferFactor returns the working-buffer factor b.
func (f *FD) BufferFactor() int { return f.bfac }

// Alpha returns the shrink aggressiveness α.
func (f *FD) Alpha() float64 { return f.alpha }

// Shrinks reports the number of SVD-and-shrink steps performed.
func (f *FD) Shrinks() uint64 { return f.shrinks }

// Delta reports the cumulative shrink charge Σλ since the sketch was
// created (or restored — the accumulator is not persisted). The FD
// analysis bounds ‖AᵀA − BᵀB‖₂ by Σλ, so Delta is a certified,
// cheaply-maintained covariance-error upper bound; the DS-FD framework
// dumps a frame exactly when its Delta crosses the error budget.
func (f *FD) Delta() float64 { return f.delta }

// Amortization reports the last shrink's amortization factor: rows
// absorbed per shrink relative to the classic (b=1) cadence with the
// same survivor count. 0 before the first shrink; ≈ b at steady state.
func (f *FD) Amortization() float64 { return f.lastAmort }

// Stats exposes the sketch's internals for instrumentation
// (structurally satisfying core.Introspector when embedded): the
// configured size and buffer discipline, occupied rows, headroom to
// the next shrink, the shrink count, and the last shrink's
// amortization factor (appends absorbed per shrink relative to the
// classic cadence; 0 before the first shrink).
func (f *FD) Stats() map[string]float64 {
	return map[string]float64{
		"ell":           float64(f.ell),
		"used":          float64(f.used),
		"headroom":      float64(f.m - f.used),
		"shrinks":       float64(f.shrinks),
		"buffer_cap":    float64(f.m),
		"buffer_factor": float64(f.bfac),
		"alpha":         f.alpha,
		"amortization":  f.lastAmort,
		"delta":         f.delta,
	}
}

// Merge absorbs other (which must be an *FD over the same dimension)
// by inserting its rows through the dense-block path; the FD analysis
// makes this merge error- and size-preserving. Other must not be used
// afterwards.
func (f *FD) Merge(other Mergeable) {
	o, ok := other.(*FD)
	if !ok {
		panic(fmt.Sprintf("stream: FD.Merge with %T", other))
	}
	if o.d != f.d {
		panic(fmt.Sprintf("stream: FD.Merge dimension %d vs %d", o.d, f.d))
	}
	if o.used == 0 {
		return
	}
	f.UpdateDense(mat.NewDenseData(o.used, o.d, o.buf.Data()[:o.used*o.d]))
}

// CloneEmpty returns a fresh FD with the same ℓ, d, and buffer
// discipline.
func (f *FD) CloneEmpty() Mergeable {
	return NewFDOpts(f.ell, f.d, FDOpts{Buffer: f.bfac, Alpha: f.alpha})
}

var _ Mergeable = (*FD)(nil)
