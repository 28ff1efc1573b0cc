package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/window"
)

// hashMatrix produces a stable fingerprint of a matrix's contents
// (rounded to 12 significant bits of mantissa slack to absorb
// platform-independent float noise — none is expected, but golden
// tests should not be flaky by construction).
func hashMatrix(m *mat.Dense) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(m.Rows())<<32|uint64(m.Cols()))
	h.Write(buf[:])
	for _, v := range m.Data() {
		r := math.Round(v*1e9) / 1e9
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestLMFDGoldenDeterminism pins LM-FD's output for a fixed stream:
// any change to the FD shrink, the merge order, the level invariants,
// or the expiry logic shows up as a changed fingerprint. Update the
// expected value deliberately when the algorithm is deliberately
// changed.
func TestLMFDGoldenDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	l := NewLMFD(window.Seq(200), 6, 12, 4)
	for i := 0; i < 1000; i++ {
		l.Update(randRow(rng, 6), float64(i))
	}
	b := l.Query(999)

	// Re-run: identical stream, identical output.
	rng2 := rand.New(rand.NewSource(12345))
	l2 := NewLMFD(window.Seq(200), 6, 12, 4)
	for i := 0; i < 1000; i++ {
		l2.Update(randRow(rng2, 6), float64(i))
	}
	if hashMatrix(b) != hashMatrix(l2.Query(999)) {
		t.Fatal("LM-FD not reproducible across runs")
	}

	// And across one batch holding the whole stream.
	rng3 := rand.New(rand.NewSource(12345))
	l3 := NewLMFD(window.Seq(200), 6, 12, 4)
	rows := make([][]float64, 1000)
	times := make([]float64, 1000)
	for i := range rows {
		rows[i], times[i] = randRow(rng3, 6), float64(i)
	}
	l3.UpdateBatch(rows, times)
	if hashMatrix(b) != hashMatrix(l3.Query(999)) {
		t.Fatal("LM-FD batch ingest not bit-identical to per-row ingest")
	}
}

// TestSamplerSeededDeterminism pins the samplers' behaviour for a
// fixed seed: restarts of a seeded pipeline must reproduce results.
func TestSamplerSeededDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		rng := rand.New(rand.NewSource(777))
		swr := NewSWR(window.Seq(150), 8, 5, 42)
		swor := NewSWOR(window.Seq(150), 8, 5, 43)
		for i := 0; i < 800; i++ {
			row := randRow(rng, 5)
			swr.Update(row, float64(i))
			swor.Update(row, float64(i))
		}
		return hashMatrix(swr.Query(799)), hashMatrix(swor.Query(799))
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatal("seeded samplers not reproducible")
	}
}
