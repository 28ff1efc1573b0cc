package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/binenc"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// rowsFromBytes decodes a fuzz payload into a row stream with values
// in a sane range (no NaN/Inf) and dimension 3.
func rowsFromBytes(data []byte) [][]float64 {
	var rows [][]float64
	for i := 0; i+2 < len(data); i += 3 {
		rows = append(rows, []float64{
			float64(int(data[i])-128) / 16,
			float64(int(data[i+1])-128) / 16,
			float64(int(data[i+2])-128) / 16,
		})
	}
	return rows
}

// FuzzLMFD feeds arbitrary streams through LM-FD and cross-checks the
// Query answer against the exact window: never panic, never NaN, and
// never wildly exceed the window's energy.
func FuzzLMFD(f *testing.F) {
	f.Add([]byte{1, 2, 3, 100, 200, 50, 0, 0, 0, 9, 9, 9})
	f.Add([]byte{255, 255, 255, 128, 128, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := rowsFromBytes(data)
		if len(rows) == 0 {
			return
		}
		spec := window.Seq(8)
		lm := NewLMFD(spec, 3, 6, 3)
		ex := window.NewExact(spec, 3)
		for i, r := range rows {
			lm.Update(r, float64(i))
			ex.Update(r, float64(i))
		}
		b := lm.Query(float64(len(rows) - 1))
		mass := b.FrobeniusSq()
		if math.IsNaN(mass) || math.IsInf(mass, 0) {
			t.Fatalf("non-finite sketch mass %v", mass)
		}
		// FD only shrinks mass; LM can retain one straddling block, so
		// allow slack over the window mass but not runaway growth.
		if mass > 4*ex.FroSq()+1e-9 {
			t.Fatalf("sketch mass %v far exceeds window mass %v", mass, ex.FroSq())
		}
	})
}

// FuzzUpdateBatch splits arbitrary streams into arbitrary-sized
// batches and asserts the bulk ingest path is bit-identical to
// row-at-a-time feeding: LM-FD is deterministic, and the samplers
// consume their rng in the same order on both paths, so the query
// answers must match exactly (tolerance 0).
func FuzzUpdateBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 100, 200, 50, 0, 0, 0, 9, 9, 9}, uint8(3))
	f.Add([]byte{255, 255, 255, 128, 128, 128, 7, 7, 7}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		rows := rowsFromBytes(data)
		if len(rows) == 0 {
			return
		}
		size := int(chunk%7) + 1
		times := make([]float64, len(rows))
		for i := range times {
			times[i] = float64(i)
		}
		spec := window.Seq(8)
		byRow := []WindowSketch{NewLMFD(spec, 3, 6, 3), NewSWR(spec, 3, 3, 7), NewSWOR(spec, 3, 3, 7)}
		byBatch := []WindowSketch{NewLMFD(spec, 3, 6, 3), NewSWR(spec, 3, 3, 7), NewSWOR(spec, 3, 3, 7)}
		for i, r := range rows {
			for _, sk := range byRow {
				sk.Update(r, times[i])
			}
		}
		for i := 0; i < len(rows); i += size {
			j := i + size
			if j > len(rows) {
				j = len(rows)
			}
			for _, sk := range byBatch {
				sk.UpdateBatch(rows[i:j], times[i:j])
			}
		}
		tEnd := times[len(times)-1]
		for k := range byRow {
			a, b := byRow[k].Query(tEnd), byBatch[k].Query(tEnd)
			if !a.Equal(b, 0) {
				t.Fatalf("%s: batch ingest (chunk %d) diverges from row-at-a-time", byRow[k].Name(), size)
			}
		}
	})
}

// dsfdHeader builds a DSFD snapshot prefix: the magic followed by
// little-endian int64 fields, for hostile-shape seeds.
func dsfdHeader(magic uint64, fields ...int) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, magic)
	for _, f := range fields {
		binary.Write(&b, binary.LittleEndian, int64(f))
	}
	return b.Bytes()
}

// FuzzDSFDUnmarshal hardens the DS-FD snapshot decoder, mirroring
// stream.FuzzFDUnmarshal: the seed corpus carries real snapshots
// (empty, single-frame, and multi-frame states with live prefix
// snapshots), torn and truncated mutants, and an allocation-bomb
// header claiming astronomically large shapes. Decoding must never
// panic, and any accepted blob must re-marshal as a byte-level fixed
// point.
func FuzzDSFDUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	snap := func(cfg DSFDConfig, d, rows int) []byte {
		s := NewDSFD(cfg, d)
		for i := 0; i < rows; i++ {
			s.Update(randRow(rng, d), float64(i))
		}
		b, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	empty := snap(DSFDConfig{N: 20, Ell: 4}, 3, 0)
	single := snap(DSFDConfig{N: 20, Ell: 4}, 3, 15)
	// ℓ < d with several windows of data: frozen frames, prefix
	// snapshots, and a tuned FastFD buffer all appear in the blob.
	deep := snap(DSFDConfig{N: 60, Ell: 4, FD: stream.FDOpts{Buffer: 2, Alpha: 0.5}}, 8, 400)
	for _, seed := range [][]byte{empty, single, deep} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // torn mid-payload
		f.Add(seed[:9])           // truncated just past the magic
	}
	corrupt := append([]byte(nil), single...)
	corrupt[0] ^= 0xFF // unrecognised magic
	f.Add(corrupt)
	f.Add([]byte{})
	// Allocation bomb: a header claiming a ~8e8-dimensional sketch;
	// the decoder must reject the shape before allocating for it (see
	// also testdata/fuzz/FuzzDSFDUnmarshal).
	f.Add(dsfdHeader(dsfdMagic, 808464432, 808464432, 808464432))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s DSFD
		if err := s.UnmarshalBinary(data); err != nil {
			return // rejected blobs only need to fail cleanly
		}
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted blob failed: %v", err)
		}
		var s2 DSFD
		if err := s2.UnmarshalBinary(re); err != nil {
			t.Fatalf("decode of re-marshal failed: %v", err)
		}
		re2, err := s2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("marshal is not stable across a decode cycle")
		}
		// An accepted sketch must remain usable.
		row := make([]float64, s2.d)
		for i := range row {
			row[i] = 1
		}
		s2.Update(row, s2.lastT+1)
	})
}

// FuzzSWOR drives the without-replacement sampler with arbitrary
// streams, asserting the structural invariants hold at every step.
func FuzzSWOR(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := rowsFromBytes(data)
		s := NewSWOR(window.Seq(5), 3, 3, 42)
		for i, r := range rows {
			s.Update(r, float64(i))
			for j, c := range s.queue {
				if c.rank > 3 {
					t.Fatalf("candidate %d rank %d > ℓ", j, c.rank)
				}
				if c.t <= float64(i)-5 {
					t.Fatalf("expired candidate retained: t=%v now=%d", c.t, i)
				}
			}
			b := s.Query(float64(i))
			if v := b.FrobeniusSq(); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite query mass")
			}
		}
	})
}

// FuzzSamplerUnmarshal hardens the SWR and SWOR snapshot decoders (both
// reachable from snapshot uploads and spill files). Seeds are real
// snapshots of SWR, SWOR and SWOR-ALL, torn and truncated mutants, and
// a 49-byte SWR header claiming 2^24 queues. Each input goes to both
// decoders: decoding must never panic, and any accepted blob must
// re-marshal as a byte-level fixed point.
func FuzzSamplerUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	snap := func(sk interface {
		WindowSketch
		MarshalBinary() ([]byte, error)
	}, rows int) []byte {
		for i := 0; i < rows; i++ {
			sk.Update(randRow(rng, 3), float64(i))
		}
		b, err := sk.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, seed := range [][]byte{
		snap(NewSWR(window.Seq(20), 3, 3, 1), 0),
		snap(NewSWR(window.Seq(20), 3, 3, 1), 50),
		snap(NewSWOR(window.Seq(20), 3, 3, 2), 50),
		snap(NewSWORAll(window.TimeSpan(7), 3, 3, 3), 50),
	} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // torn mid-payload
		f.Add(seed[:9])           // truncated just past the magic
	}
	w := binenc.NewWriter()
	w.U64(swrMagic)
	writeSpec(w, window.Seq(10))
	w.Int(4)       // d
	w.Int(1 << 24) // ell: 403 MB of queues if allocated up front
	w.F64(0)
	w.Bool(false)
	f.Add(w.Bytes())
	// A well-formed SWR prefix whose norm-tracker blob claims MaxInt32
	// items in 24 bytes.
	nb := binenc.NewWriter()
	writeSpec(nb, window.Seq(10))
	nb.Int(math.MaxInt32)
	w = binenc.NewWriter()
	w.U64(swrMagic)
	writeSpec(w, window.Seq(10))
	w.Int(3) // d
	w.Int(1) // ell
	w.F64(0)
	w.Bool(false)
	w.Int(0) // empty queue
	w.Blob(nb.Bytes())
	f.Add(w.Bytes())

	type sampler interface {
		WindowSketch
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range []func() sampler{
			func() sampler { return new(SWR) },
			func() sampler { return new(SWOR) },
		} {
			s := mk()
			if err := s.UnmarshalBinary(data); err != nil {
				continue // rejected blobs only need to fail cleanly
			}
			re, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of accepted blob failed: %v", err)
			}
			s2 := mk()
			if err := s2.UnmarshalBinary(re); err != nil {
				t.Fatalf("decode of re-marshal failed: %v", err)
			}
			re2, err := s2.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, re2) {
				t.Fatal("marshal is not stable across a decode cycle")
			}
		}
	})
}
