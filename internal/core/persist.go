package core

import (
	"errors"
	"fmt"
	"time"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// Snapshot/restore support for the sketches a long-lived process would
// run: SWR, SWOR (and SWOR-ALL), and LM-FD. Snapshots capture the full
// deterministic state; the samplers' random source is reseeded on
// restore (future priority draws only need independence from each
// other, not continuity with the pre-snapshot stream, so the sampling
// guarantees are unaffected).
//
// Formats are versioned with magic numbers; restoring rejects foreign
// or truncated data.

// ErrSnapshotUnsupported is returned (wrapped) by MarshalBinary on a
// sketch that has no snapshot format, such as an LM over a non-FD
// block sketch. Callers test for it with errors.Is.
var ErrSnapshotUnsupported = errors.New("snapshots unsupported")

const (
	swrMagic  = uint64(0x53575253_00000001) // "SWRS" v1
	sworMagic = uint64(0x53574F52_00000001) // "SWOR" v1
	lmfdMagic = uint64(0x4C4D4644_00000001) // "LMFD" v1
	// lmfdMagicV2 adds the FastFD factory tuning (buffer factor, alpha)
	// after the b field; classic-tuned LMs keep writing v1 so their
	// snapshot bytes stay identical across versions.
	lmfdMagicV2 = uint64(0x4C4D4644_00000002) // "LMFD" v2
)

func writeSpec(w *binenc.Writer, spec window.Spec) {
	w.Int(int(spec.Kind))
	w.F64(spec.Size)
}

func readSpec(r *binenc.Reader) (window.Spec, error) {
	kind := window.Kind(r.Int())
	size := r.F64()
	if r.Err() != nil {
		return window.Spec{}, r.Err()
	}
	if kind != window.Sequence && kind != window.Time {
		return window.Spec{}, fmt.Errorf("core: snapshot has bad window kind %d", int(kind))
	}
	if size <= 0 {
		return window.Spec{}, fmt.Errorf("core: snapshot has bad window size %v", size)
	}
	return window.Spec{Kind: kind, Size: size}, nil
}

// cfgField pairs one configuration parameter as a snapshot records it
// with the value the receiving sketch was built with.
type cfgField struct {
	name       string
	blob, recv any
}

// checkRestoreConfig refuses a snapshot whose configuration differs
// from the receiver's in any listed field. Decoders call it only on a
// receiver built with parameters (a tenant's sketch); a zero-value
// receiver adopts whatever configuration the snapshot carries. Either
// way a refused blob leaves the receiver unchanged. The FD buffer
// tuning is not compared: the blob's tuning wins, as it always has,
// because spill files written before the registry's v3 header decode
// to the default tuning.
func checkRestoreConfig(algo string, fields ...cfgField) error {
	for _, f := range fields {
		if f.blob != f.recv {
			return fmt.Errorf("core: %s snapshot has %s %v, the receiving sketch has %v", algo, f.name, f.blob, f.recv)
		}
	}
	return nil
}

func writeCandidate(w *binenc.Writer, c candidate) {
	w.F64s(c.row)
	w.F64(c.t)
	w.F64(c.w)
	w.F64(c.key)
}

func readCandidate(r *binenc.Reader, d int) (candidate, error) {
	c := candidate{row: r.F64s(), t: r.F64(), w: r.F64(), key: r.F64()}
	if r.Err() != nil {
		return c, r.Err()
	}
	if len(c.row) != d {
		return c, fmt.Errorf("core: snapshot candidate row length %d, want %d", len(c.row), d)
	}
	return c, nil
}

// exactNormsOrErr extracts the ExactNorms tracker; snapshots do not
// cover custom trackers (the EH tracker is cheap to rebuild and
// approximate anyway).
func exactNormsOrErr(nt window.NormTracker, algo string) (*window.ExactNorms, error) {
	x, ok := nt.(*window.ExactNorms)
	if !ok {
		return nil, fmt.Errorf("core: %s snapshot requires the exact norm tracker, have %T", algo, nt)
	}
	return x, nil
}

// MarshalBinary snapshots the SWR sampler.
func (s *SWR) MarshalBinary() ([]byte, error) {
	norms, err := exactNormsOrErr(s.norms, "SWR")
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	w.U64(swrMagic)
	writeSpec(w, s.spec)
	w.Int(s.d)
	w.Int(s.ell)
	w.F64(s.lastT)
	w.Bool(s.seen)
	for q := range s.queues {
		w.Int(len(s.queues[q].items))
		for _, c := range s.queues[q].items {
			writeCandidate(w, c)
		}
	}
	nb, err := norms.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(nb)
	out := w.Bytes()
	s.tr.Emit("SWR", trace.KindSnapshot, s.lastT, float64(len(out)), 0)
	return out, nil
}

// UnmarshalBinary restores an SWR snapshot into the receiver.
func (s *SWR) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if magic := r.U64(); magic != swrMagic && r.Err() == nil {
		return fmt.Errorf("core: SWR snapshot magic %#x unrecognised", magic)
	}
	spec, err := readSpec(r)
	if err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	d := r.Int()
	ell := r.Int()
	lastT := r.F64()
	seen := r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	if d < 1 || ell < 1 {
		return fmt.Errorf("core: SWR snapshot shape ell=%d d=%d", ell, d)
	}
	if s.d != 0 {
		if err := checkRestoreConfig("SWR",
			cfgField{"window", spec, s.spec}, cfgField{"d", d, s.d}, cfgField{"ell", ell, s.ell}); err != nil {
			return err
		}
	}
	// Each queue encodes at least its 8-byte count: reject a claimed ℓ
	// the payload cannot hold before NewSWR allocates ℓ queues.
	if ell > r.Rest()/8 {
		return fmt.Errorf("core: SWR snapshot claims %d queues in %d bytes", ell, r.Rest())
	}
	restored := NewSWR(spec, ell, d, time.Now().UnixNano())
	restored.lastT, restored.seen = lastT, seen
	for q := 0; q < ell; q++ {
		n := r.Int()
		if r.Err() != nil {
			return fmt.Errorf("core: SWR snapshot: %w", r.Err())
		}
		// A candidate encodes its d-float row plus four 8-byte fields.
		if n > r.Rest()/(32+8*d) {
			return fmt.Errorf("core: SWR snapshot queue claims %d candidates in %d bytes", n, r.Rest())
		}
		items := make([]candidate, 0, n)
		for i := 0; i < n; i++ {
			c, err := readCandidate(r, d)
			if err != nil {
				return fmt.Errorf("core: SWR snapshot: %w", err)
			}
			items = append(items, c)
		}
		restored.queues[q].items = items
	}
	norms := window.NewExactNorms(spec)
	if err := norms.UnmarshalBinary(r.Blob()); err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("core: SWR snapshot has %d trailing bytes", r.Rest())
	}
	restored.norms = norms
	restored.tr = s.tr // the tracer survives restore
	*s = *restored
	s.tr.Emit("SWR", trace.KindRestore, s.lastT, float64(len(data)), 0)
	return nil
}

// MarshalBinary snapshots the SWOR sampler (including the SWOR-ALL and
// uniform-scale flags).
func (s *SWOR) MarshalBinary() ([]byte, error) {
	norms, err := exactNormsOrErr(s.norms, "SWOR")
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	w.U64(sworMagic)
	writeSpec(w, s.spec)
	w.Int(s.d)
	w.Int(s.ell)
	w.Bool(s.UniformScale)
	w.Bool(s.All)
	w.F64(s.lastT)
	w.Bool(s.seen)
	w.Int(len(s.queue))
	for _, c := range s.queue {
		writeCandidate(w, c.candidate)
		w.Int(c.rank)
	}
	nb, err := norms.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(nb)
	out := w.Bytes()
	s.tr.Emit(s.Name(), trace.KindSnapshot, s.lastT, float64(len(out)), 0)
	return out, nil
}

// UnmarshalBinary restores a SWOR snapshot into the receiver.
func (s *SWOR) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if magic := r.U64(); magic != sworMagic && r.Err() == nil {
		return fmt.Errorf("core: SWOR snapshot magic %#x unrecognised", magic)
	}
	spec, err := readSpec(r)
	if err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	d := r.Int()
	ell := r.Int()
	uniform := r.Bool()
	all := r.Bool()
	lastT := r.F64()
	seen := r.Bool()
	n := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	if d < 1 || ell < 1 {
		return fmt.Errorf("core: SWOR snapshot shape ell=%d d=%d", ell, d)
	}
	if s.d != 0 {
		if err := checkRestoreConfig(s.Name(),
			cfgField{"window", spec, s.spec}, cfgField{"d", d, s.d}, cfgField{"ell", ell, s.ell},
			cfgField{"all", all, s.All}, cfgField{"uniform_scale", uniform, s.UniformScale}); err != nil {
			return err
		}
	}
	restored := NewSWOR(spec, ell, d, time.Now().UnixNano())
	restored.UniformScale, restored.All = uniform, all
	restored.lastT, restored.seen = lastT, seen
	for i := 0; i < n; i++ {
		c, err := readCandidate(r, d)
		if err != nil {
			return fmt.Errorf("core: SWOR snapshot: %w", err)
		}
		rank := r.Int()
		if rank < 1 || rank > ell {
			return fmt.Errorf("core: SWOR snapshot rank %d outside [1,%d]", rank, ell)
		}
		restored.queue = append(restored.queue, sworCandidate{candidate: c, rank: rank})
	}
	norms := window.NewExactNorms(spec)
	if err := norms.UnmarshalBinary(r.Blob()); err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("core: SWOR snapshot has %d trailing bytes", r.Rest())
	}
	restored.norms = norms
	restored.tr = s.tr // the tracer survives restore
	*s = *restored
	s.tr.Emit(s.Name(), trace.KindRestore, s.lastT, float64(len(data)), 0)
	return nil
}

// MarshalBinary snapshots an LM-FD sketch. Only the FrequentDirections
// backing is supported: restoring must rebuild the block factory, and
// FD's is fully determined by (ℓ, d).
func (l *LM) MarshalBinary() ([]byte, error) {
	if l.name != "LM-FD" {
		return nil, fmt.Errorf("core: %w: LM snapshots support LM-FD only, have %s", ErrSnapshotUnsupported, l.name)
	}
	l.snapshots++
	w := binenc.NewWriter()
	classic := l.fdOpts.Buffer <= 1 && (l.fdOpts.Alpha == 0 || l.fdOpts.Alpha == 1)
	if classic {
		w.U64(lmfdMagic)
	} else {
		w.U64(lmfdMagicV2)
	}
	writeSpec(w, l.spec)
	w.Int(l.d)
	w.F64(l.ell)
	w.Int(l.b)
	if !classic {
		w.Int(l.fdOpts.Buffer)
		w.F64(l.fdOpts.Alpha)
	}
	w.F64(l.lastT)
	w.Bool(l.seen)
	w.Int(len(l.levels))
	for _, lv := range l.levels {
		w.Int(len(lv))
		for i := range lv {
			if err := writeLMBlock(w, &lv[i]); err != nil {
				return nil, err
			}
		}
	}
	if err := writeLMBlock(w, &l.active); err != nil {
		return nil, err
	}
	out := w.Bytes()
	l.tr.Emit(l.name, trace.KindSnapshot, l.lastT, float64(len(out)), 0)
	return out, nil
}

func writeLMBlock(w *binenc.Writer, blk *lmBlock) error {
	w.F64(blk.start)
	w.F64(blk.end)
	w.F64(blk.size)
	w.F64(blk.singletonCap)
	if blk.sk == nil {
		w.Bool(false)
		w.Int(len(blk.raw))
		for i, row := range blk.raw {
			w.Int(len(row.Idx))
			for _, ix := range row.Idx {
				w.Int(ix)
			}
			w.F64s(row.Val)
			w.F64(blk.rawTimes[i])
		}
		return nil
	}
	w.Bool(true)
	fd, ok := blk.sk.(*stream.FD)
	if !ok {
		return fmt.Errorf("core: LM snapshot found non-FD block sketch %T", blk.sk)
	}
	b, err := fd.MarshalBinary()
	if err != nil {
		return err
	}
	w.Blob(b)
	return nil
}

func readLMBlock(r *binenc.Reader, d int) (lmBlock, error) {
	blk := lmBlock{
		start:        r.F64(),
		end:          r.F64(),
		size:         r.F64(),
		singletonCap: r.F64(),
	}
	sketched := r.Bool()
	if r.Err() != nil {
		return blk, r.Err()
	}
	if !sketched {
		n := r.Int()
		for i := 0; i < n; i++ {
			nnz := r.Int()
			if r.Err() != nil {
				return blk, r.Err()
			}
			idx := make([]int, nnz)
			prev := -1
			for k := range idx {
				idx[k] = r.Int()
				if r.Err() == nil && (idx[k] <= prev || idx[k] >= d) {
					return blk, fmt.Errorf("core: LM snapshot sparse index %d invalid for d=%d", idx[k], d)
				}
				prev = idx[k]
			}
			val := r.F64s()
			t := r.F64()
			if r.Err() != nil {
				return blk, r.Err()
			}
			if len(val) != nnz {
				return blk, fmt.Errorf("core: LM snapshot row has %d indices, %d values", nnz, len(val))
			}
			blk.raw = append(blk.raw, mat.SparseRow{Idx: idx, Val: val})
			blk.rawTimes = append(blk.rawTimes, t)
		}
		return blk, r.Err()
	}
	fd := stream.NewFD(2, d) // shape overwritten by the snapshot
	if err := fd.UnmarshalBinary(r.Blob()); err != nil {
		return blk, err
	}
	blk.sk = fd
	return blk, nil
}

// UnmarshalBinary restores an LM-FD snapshot into the receiver.
func (l *LM) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	magic := r.U64()
	if magic != lmfdMagic && magic != lmfdMagicV2 && r.Err() == nil {
		return fmt.Errorf("core: LM snapshot magic %#x unrecognised", magic)
	}
	spec, err := readSpec(r)
	if err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	d := r.Int()
	ell := r.F64()
	b := r.Int()
	fdo := stream.FDOpts{}
	if magic == lmfdMagicV2 {
		fdo.Buffer = r.Int()
		fdo.Alpha = r.F64()
		if r.Err() == nil && (fdo.Buffer < 1 || !(fdo.Alpha > 0 && fdo.Alpha <= 1)) {
			return fmt.Errorf("core: LM snapshot has invalid FD tuning buffer=%d alpha=%v", fdo.Buffer, fdo.Alpha)
		}
	}
	lastT := r.F64()
	seen := r.Bool()
	nLevels := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	if d < 1 || ell < 1 || b < 2 || nLevels < 0 {
		return fmt.Errorf("core: LM snapshot shape d=%d ell=%v b=%d levels=%d", d, ell, b, nLevels)
	}
	if l.factory != nil {
		if err := checkRestoreConfig("LM-FD",
			cfgField{"framework", "LM-FD", l.name}, cfgField{"window", spec, l.spec},
			cfgField{"d", d, l.d}, cfgField{"ell", ell, l.ell}, cfgField{"b", b, l.b}); err != nil {
			return err
		}
	}
	restored := NewLMFDOpts(spec, d, int(ell), b, fdo)
	restored.lastT, restored.seen = lastT, seen
	for i := 0; i < nLevels; i++ {
		n := r.Int()
		if r.Err() != nil {
			return fmt.Errorf("core: LM snapshot: %w", r.Err())
		}
		var lv []lmBlock
		for j := 0; j < n; j++ {
			blk, err := readLMBlock(r, d)
			if err != nil {
				return fmt.Errorf("core: LM snapshot: %w", err)
			}
			lv = append(lv, blk)
		}
		restored.levels = append(restored.levels, lv)
	}
	active, err := readLMBlock(r, d)
	if err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("core: LM snapshot has %d trailing bytes", r.Rest())
	}
	restored.active = active
	restored.tr = l.tr // the tracer survives restore
	for i := range restored.levels {
		for j := range restored.levels[i] {
			if t, ok := restored.levels[i][j].sk.(trace.Traceable); ok {
				t.SetTracer(l.tr)
			}
		}
	}
	*l = *restored
	l.tr.Emit(l.name, trace.KindRestore, l.lastT, float64(len(data)), 0)
	return nil
}
