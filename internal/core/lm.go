package core

import (
	"fmt"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// lmBlock is one block of the Logarithmic Method. A block covers a
// contiguous span of rows; its "size" is the total squared norm it
// covers. Fresh blocks (the active block and large-norm singleton
// blocks) hold their rows raw; the first merge converts them into a
// streaming sketch — the fast path that gives LM-FD its O(d·log εNR)
// amortised update cost.
type lmBlock struct {
	sk           stream.Mergeable // nil while the block is raw
	raw          []mat.SparseRow  // raw rows when sk == nil (sparse storage)
	rawTimes     []float64        // arrival times of the raw rows
	start, end   float64
	size         float64
	singletonCap float64 // > 0 marks a single oversized row of that mass
}

// sketch materialises the block's mergeable sketch, converting raw
// rows on first use.
func (b *lmBlock) sketch(factory stream.MergeableFactory, d int) stream.Mergeable {
	if b.sk == nil {
		b.sk = factory(d)
		feedRows(b.sk, b.raw, d)
		b.raw, b.rawTimes = nil, nil
	}
	return b.sk
}

// feedRows streams sparse rows into a sketch, using its sparse ingest
// path when available.
func feedRows(sk stream.Sketch, rows []mat.SparseRow, d int) {
	if su, ok := sk.(stream.SparseUpdatable); ok {
		for _, r := range rows {
			su.UpdateSparse(r)
		}
		return
	}
	for _, r := range rows {
		sk.Update(r.Dense(d))
	}
}

// rows reports the block's space usage in rows.
func (b *lmBlock) rows() int {
	if b.sk != nil {
		return b.sk.RowsStored()
	}
	return len(b.raw)
}

// mergeFrom absorbs o into b, combining spans, sizes, and sketches.
func (b *lmBlock) mergeFrom(o *lmBlock, factory stream.MergeableFactory, d int) {
	b.sketch(factory, d).Merge(o.sketch(factory, d))
	if o.start < b.start {
		b.start = o.start
	}
	if o.end > b.end {
		b.end = o.end
	}
	b.size += o.size
	b.singletonCap = 0
}

// LM is the Logarithmic Method of Section 6: it maintains levels of
// exponentially growing blocks, each holding a mergeable streaming
// sketch of size ℓ, with b blocks per level. Level-i blocks have mass
// in [2^{i-1}ℓ, 2^i ℓ]; when a level exceeds b blocks its two oldest
// blocks merge into the next level. A query merges every live block
// into one sketch of size ℓ. LM works for both sequence- and
// time-based windows; its error guarantee is ε with b = Θ(1/ε) blocks
// per level and per-block sketches of error ε/8 (Theorem 6.1).
//
// Rows with squared norm ≥ ℓ ride as singleton blocks: they stay
// unmerged (and exact) until promoted to a level whose block capacity
// 2^i·ℓ covers their mass, after which they merge like regular blocks
// (the "Remark" of Section 6.2).
type LM struct {
	spec    window.Spec
	d       int
	ell     float64 // block mass threshold (= per-block sketch rows for FD)
	b       int     // blocks per level
	factory stream.MergeableFactory
	// fdOpts is the FastFD tuning baked into the factory — recorded so
	// snapshots can rebuild an identically-tuned factory on restore.
	// Meaningful for LM-FD only; zero elsewhere.
	fdOpts stream.FDOpts

	// levels[0] is level 1 (most recent); each level holds blocks
	// oldest-first. The active block is separate.
	levels [][]lmBlock
	active lmBlock
	name   string
	lastT  float64
	seen   bool

	// merges counts block merges performed by rebalance and snapshots
	// the MarshalBinary calls — structural churn counters surfaced by
	// Stats for operational monitoring.
	merges    uint64
	snapshots uint64

	tr *trace.Tracer
}

// SetTracer attaches a tracer: structural transitions (active-block
// closes, merges, singleton promotions, expiry) emit events, and block
// sketches created afterwards inherit the tracer (FD blocks then emit
// fd_shrink spans). Attach before the first Update — blocks sketched
// earlier keep emitting nowhere.
func (l *LM) SetTracer(tr *trace.Tracer) { l.tr = tr }

// mkSketch builds a block sketch via the factory and attaches the
// tracer when the sketch supports it. All block-sketch creation goes
// through here (or through mergeFrom, which receives it bound).
func (l *LM) mkSketch(d int) stream.Mergeable {
	sk := l.factory(d)
	if t, ok := sk.(trace.Traceable); ok {
		t.SetTracer(l.tr)
	}
	return sk
}

// NewLM builds a Logarithmic Method sketch from any mergeable
// streaming-sketch factory. ell is both the active block's mass
// threshold and the nominal per-block sketch size; b is the number of
// blocks per level (≈ 8/ε in the analysis).
func NewLM(spec window.Spec, d int, ell float64, b int, name string, factory stream.MergeableFactory) *LM {
	if d < 1 {
		panic(fmt.Sprintf("core: LM needs d ≥ 1, got %d", d))
	}
	if ell < 1 {
		panic(fmt.Sprintf("core: LM needs ell ≥ 1, got %v", ell))
	}
	if b < 2 {
		panic(fmt.Sprintf("core: LM needs b ≥ 2 blocks per level, got %d", b))
	}
	return &LM{spec: spec, d: d, ell: ell, b: b, factory: factory, name: name}
}

// NewLMFD builds LM over FrequentDirections blocks of ℓ rows: the
// paper's LM-FD (Corollary 6.1), its recommended general-purpose
// sliding-window sketch.
func NewLMFD(spec window.Spec, d, ell, b int) *LM {
	return NewLMFDOpts(spec, d, ell, b, stream.FDOpts{})
}

// NewLMFDOpts builds LM-FD with FastFD ingest tuning applied to every
// block sketch: o.Buffer widens each block's working buffer for
// amortized shrinks and o.Alpha tunes the shrink cadence. The zero
// FDOpts reproduces NewLMFD exactly (including snapshot bytes); the
// covariance guarantee holds for any valid (b, α).
func NewLMFDOpts(spec window.Spec, d, ell, b int, o stream.FDOpts) *LM {
	o = o.Normalize()
	l := NewLM(spec, d, float64(ell), b, "LM-FD", func(dim int) stream.Mergeable {
		return stream.NewFDOpts(ell, dim, o)
	})
	l.fdOpts = o
	return l
}

// NewLMHash builds LM over feature-hashing blocks of ℓ buckets: the
// appendix's LM-HASH (Corollary A.1). All blocks share one hash
// family, which is what makes their merges exact additions.
func NewLMHash(spec window.Spec, d, ell, b int, seed uint64) *LM {
	fam := stream.NewHashFamily(seed)
	return NewLM(spec, d, float64(ell), b, "LM-HASH", func(dim int) stream.Mergeable {
		return fam.NewSketch(ell, dim)
	})
}

// Update implements Algorithm 6.1 as a one-row batch.
func (l *LM) Update(row []float64, t float64) {
	l.UpdateBatch([][]float64{row}, []float64{t})
}

// UpdateBatch ingests rows in order with one up-front validation pass.
// Expiry and level rebalancing run per row, so the resulting block
// structure (and hence every query answer) does not depend on how the
// stream is batched. Raw rows are stored sparsely (SparseFromDense
// drops zeros), the memory and sketch-feed win for high-dimensional
// sparse streams.
func (l *LM) UpdateBatch(rows [][]float64, times []float64) {
	validateBatch("LM", rows, times, l.d)
	for i, r := range rows {
		l.ingest(mat.SparseFromDense(r), times[i])
	}
}

// ingest owns r (already copied).
func (l *LM) ingest(r mat.SparseRow, t float64) {
	if l.seen && t < l.lastT {
		panic(fmt.Sprintf("core: LM timestamp %v precedes %v", t, l.lastT))
	}
	l.lastT, l.seen = t, true
	l.expire(l.spec.Cutoff(t))

	w := r.SqNorm()
	if w == 0 {
		return
	}

	if w >= l.ell {
		// Oversized row: close the active block first (to preserve
		// arrival order across blocks), then push a singleton block.
		l.closeActive(t)
		l.pushLevel1(lmBlock{raw: []mat.SparseRow{r}, rawTimes: []float64{t}, start: t, end: t, size: w, singletonCap: w})
		l.rebalance()
		return
	}

	if len(l.active.raw) == 0 {
		l.active.start = t
	}
	l.active.raw = append(l.active.raw, r)
	l.active.rawTimes = append(l.active.rawTimes, t)
	l.active.end = t
	l.active.size += w
	if l.active.size > l.ell {
		l.closeActive(t)
		l.rebalance()
	}
}

// closeActive moves a non-empty active block to level 1.
func (l *LM) closeActive(t float64) {
	if len(l.active.raw) == 0 {
		return
	}
	blk := l.active
	l.active = lmBlock{start: t, end: t}
	l.tr.Emit(l.name, trace.KindLMClose, t, float64(len(blk.raw)), blk.size)
	l.pushLevel1(blk)
}

func (l *LM) pushLevel1(blk lmBlock) {
	if len(l.levels) == 0 {
		l.levels = append(l.levels, nil)
	}
	l.levels[0] = append(l.levels[0], blk)
}

// rebalance restores the ≤ b blocks-per-level invariant bottom-up:
// while a level overflows, its two oldest blocks merge into a block of
// the next level (levels[i] is paper level i+1, with block mass
// capacity 2^{i+1}·ℓ). A singleton block whose mass exceeds the next
// level's capacity is promoted alone — the Section 6.2 remark — until
// a level large enough to absorb it is reached.
func (l *LM) rebalance() {
	for i := 0; i < len(l.levels); i++ {
		for len(l.levels[i]) > l.b {
			capacity := l.ell * float64(uint64(1)<<uint(i+1))
			lv := l.levels[i]
			if lv[0].singletonCap > capacity || lv[1].singletonCap > capacity {
				// One of the two oldest cannot merge at this level:
				// promote the oldest alone, preserving arrival order.
				promoted := lv[0]
				l.levels[i] = lv[1:]
				l.tr.Emit(l.name, trace.KindLMPromote, promoted.end, float64(i+1), promoted.size)
				l.appendLevel(i+1, promoted)
				continue
			}
			lv[0].mergeFrom(&lv[1], l.mkSketch, l.d)
			l.merges++
			merged := lv[0]
			l.levels[i] = lv[2:]
			l.tr.Emit(l.name, trace.KindLMMerge, merged.end, float64(i+1), merged.size)
			l.appendLevel(i+1, merged)
		}
	}
}

func (l *LM) appendLevel(i int, blk lmBlock) {
	for len(l.levels) <= i {
		l.levels = append(l.levels, nil)
	}
	l.levels[i] = append(l.levels[i], blk)
}

// expire removes blocks that lie entirely outside the window and
// trims expired rows out of the (raw, timestamped) active block.
// Levels hold blocks oldest-first, so expiry pops from each level's
// front; a sketched block that merely straddles the cutoff is kept
// whole — its stale rows are the algorithm's budgeted expiring-block
// error. Emptied trailing levels are dropped.
func (l *LM) expire(cutoff float64) {
	dropped := 0
	for i := range l.levels {
		lv := l.levels[i]
		drop := 0
		for drop < len(lv) && lv[drop].end <= cutoff {
			drop++
		}
		if drop > 0 {
			l.levels[i] = lv[drop:]
			dropped += drop
		}
	}
	for n := len(l.levels); n > 0 && len(l.levels[n-1]) == 0; n = len(l.levels) {
		l.levels = l.levels[:n-1]
	}
	// The active block is raw, so it can be trimmed exactly.
	a := &l.active
	drop := 0
	for drop < len(a.raw) && a.rawTimes[drop] <= cutoff {
		a.size -= a.raw[drop].SqNorm()
		drop++
	}
	if drop > 0 {
		a.raw = a.raw[drop:]
		a.rawTimes = a.rawTimes[drop:]
		if len(a.raw) == 0 {
			a.size = 0
		} else {
			a.start = a.rawTimes[0]
			if a.size < 0 {
				a.size = 0
			}
		}
	}
	if dropped > 0 || drop > 0 {
		l.tr.Emit(l.name, trace.KindLMExpire, cutoff, float64(dropped), float64(drop))
	}
}

// Query implements Algorithm 6.2: merge every live block sketch (plus
// the active block's raw rows) into a fresh sketch of size ℓ.
func (l *LM) Query(t float64) *mat.Dense {
	l.expire(l.spec.Cutoff(t))
	acc := l.mkSketch(l.d)
	// Merge oldest (highest level) first so FD's shrinking treats the
	// window as a stream in arrival order.
	for i := len(l.levels) - 1; i >= 0; i-- {
		for j := range l.levels[i] {
			blk := &l.levels[i][j]
			if blk.sk == nil {
				// Raw block: feed rows directly; cheaper than building
				// a throwaway sketch.
				feedRows(acc, blk.raw, l.d)
				continue
			}
			acc.Merge(blk.sk)
		}
	}
	feedRows(acc, l.active.raw, l.d)
	return acc.Matrix()
}

// RowsStored reports the total rows across all block sketches, raw
// blocks, and the active block.
func (l *LM) RowsStored() int {
	n := len(l.active.raw)
	for i := range l.levels {
		for j := range l.levels[i] {
			n += l.levels[i][j].rows()
		}
	}
	return n
}

// Levels reports the current number of levels (for tests and
// instrumentation).
func (l *LM) Levels() int { return len(l.levels) }

// blocksAt returns the block count of 1-based level i (0 if absent).
func (l *LM) blocksAt(i int) int {
	if i < 1 || i > len(l.levels) {
		return 0
	}
	return len(l.levels[i-1])
}

// Name implements WindowSketch.
func (l *LM) Name() string { return l.name }

// Stats implements Introspector: level occupancy (total plus one
// level<i>_blocks entry per live level), raw-vs-sketched block split,
// active-block fill, merge and snapshot counters, and — when the block
// sketches expose a shrink count (FD does) — the total shrinks across
// live blocks.
func (l *LM) Stats() map[string]float64 {
	m := map[string]float64{
		"levels":           float64(len(l.levels)),
		"blocks_per_level": float64(l.b),
		"active_rows":      float64(len(l.active.raw)),
		"active_mass":      l.active.size,
		"merges":           float64(l.merges),
		"snapshots":        float64(l.snapshots),
	}
	blocks, rawBlocks, shrinks := 0, 0, uint64(0)
	haveShrinks := false
	amort := 0.0
	for i := range l.levels {
		m[fmt.Sprintf("level%d_blocks", i+1)] = float64(len(l.levels[i]))
		for j := range l.levels[i] {
			blk := &l.levels[i][j]
			blocks++
			if blk.sk == nil {
				rawBlocks++
				continue
			}
			if sc, ok := blk.sk.(interface{ Shrinks() uint64 }); ok {
				shrinks += sc.Shrinks()
				haveShrinks = true
			}
			if am, ok := blk.sk.(interface{ Amortization() float64 }); ok {
				if a := am.Amortization(); a > amort {
					amort = a
				}
			}
		}
	}
	m["blocks"] = float64(blocks)
	m["blocks_raw"] = float64(rawBlocks)
	m["blocks_sketched"] = float64(blocks - rawBlocks)
	if haveShrinks {
		m["fd_shrinks"] = float64(shrinks)
		m["fd_amortization"] = amort
	}
	return m
}

var (
	_ WindowSketch = (*LM)(nil)
	_ Introspector = (*LM)(nil)
)

// NewLMRP builds LM over random-projection blocks. The paper's
// appendix only pairs RP with the DI framework, but RP is mergeable
// too (the sum of projections built from independent random columns is
// a projection of the concatenated stream), so LM-RP is provided as a
// natural extension; it trades LM-FD's determinism for O(ℓd) updates
// with no SVD in the merge path.
func NewLMRP(spec window.Spec, d, ell, b int, seed int64) *LM {
	next := seed
	return NewLM(spec, d, float64(ell), b, "LM-RP", func(dim int) stream.Mergeable {
		next++
		return stream.NewRP(ell, dim, next)
	})
}
