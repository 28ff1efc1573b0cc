package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
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

// bitsDigest is the SHA-256 of the exact IEEE-754 bits of vals, in
// order: any change to a single ulp anywhere shows up.
func bitsDigest(vals []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func flattenRows(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// TestCODAMMGolden pins the exact output bits of the COD co-sketch and
// both AMM window lifts over a fixed seeded paired stream: the SHA-256
// of the snapshot bytes and of the Float64bits of the AᵀB estimate.
// The shapes cover both sides of the shrink's QR (a side with fewer
// buffered rows than columns and one with more). A kernel rewrite in
// the shrink path (QR, SVD, the rebuild products) that reassociates a
// single sum changes these digests; re-pin them only for a deliberate
// change of the algorithm, and say why in CHANGES.md.
func TestCODAMMGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" || !mat.KernelsAccelerated() {
		// The rebuild products run through the AVX2+FMA kernels; the
		// portable fallback rounds differently, and other architectures
		// may fuse multiply-adds in the pure-Go loops.
		t.Skip("digests are pinned for amd64 with AVX2+FMA kernels")
	}
	const n = 1500
	rows := pairedRows(rand.New(rand.NewSource(20261018)), n, 12, 8, 3)
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i + 1)
	}
	ingest := func(a *AMM) {
		for lo := 0; lo < n; lo += 97 {
			hi := lo + 97
			if hi > n {
				hi = n
			}
			a.UpdateBatch(rows[lo:hi], times[lo:hi])
		}
	}
	check := func(name string, a *AMM, wantBlob, wantProduct string) {
		t.Helper()
		blob, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := bytesDigest(blob); got != wantBlob {
			t.Errorf("%s snapshot sha256 = %s, want %s", name, got, wantBlob)
		}
		if got := bitsDigest(flattenRows(a.AmmApproximation(float64(n)))); got != wantProduct {
			t.Errorf("%s AmmApproximation bits sha256 = %s, want %s", name, got, wantProduct)
		}
	}

	lm := NewLMAMMOpts(window.Seq(400), 12, 8, 8, 4, stream.FDOpts{Buffer: 2})
	ingest(lm)
	if got := lm.Stats()["fd_shrinks"]; got < 10 {
		t.Fatalf("LM-AMM block co-sketches shrank %v times, want ≥ 10", got)
	}
	check("LM-AMM", lm,
		"0278717bd1c427ea8afc8011415e2fb446cb7a6821203132d2589a20b5c0190c",
		"ab6d2abaaa666463bf3dd0a8380b7db341743cb0a03a76912ebef5e0c508efa5")

	di := NewDIAMM(DIConfig{N: 400, R: maxStackedSqNorm(rows) * 1.01, L: 3, Ell: 16, RSlack: 2}, 12, 8)
	ingest(di)
	if got := di.Stats()["fd_shrinks"]; got < 100 {
		t.Fatalf("DI-AMM co-sketches shrank %v times, want ≥ 100", got)
	}
	check("DI-AMM", di,
		"b272a612ed0ecf8b2ee41d8f0c34e97cf8f7c276eb8a69d9ffe9a524fdc5898f",
		"fe8cf06affea2ffc808eab6310a1479133a5ce56f341f6ac8bee8f0a6112a979")

	// A stand-alone co-sketch whose A side (d=24) is wider than its
	// buffer and whose B side (d=5) is narrower.
	wide := pairedRows(rand.New(rand.NewSource(7)), 600, 24, 5, 4)
	cod := stream.NewCOD(6, 24, 5)
	for _, r := range wide {
		cod.Update(r)
	}
	if cod.Shrinks() < 20 {
		t.Fatalf("stand-alone COD shrank %d times, want ≥ 20", cod.Shrinks())
	}
	blob, err := cod.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytesDigest(blob), "43079d246934d38316325e74006042685bff3330d2572735dc59a554d9852101"; got != want {
		t.Errorf("COD snapshot sha256 = %s, want %s", got, want)
	}
	if got, want := bitsDigest(cod.Product().Data()), "ff674d88c21ebd212a18217b5c049ed22304336e6cbd276df97403c8fb1a9bf3"; got != want {
		t.Errorf("COD product bits sha256 = %s, want %s", got, want)
	}
}

// TestClassicFDGolden pins the exact output bits of the classic (b=1,
// α=1) FD shrink at the shapes the query plane runs: LM-FD at d=256,
// ℓ=64 over a 500-row window, and DS-FD at ℓ=64. It hashes the
// snapshot bytes and the Float64bits of the query answer. Both go
// through the eigensolver and the rebuild product on every shrink, so
// a solver or kernel rewrite that moves a single bit shows up here.
// The rebuild products are large enough to run on the worker pool;
// the digests hold for any GOMAXPROCS because its chunks are whole
// 4-row tiles.
// Re-pin only for a deliberate change of the algorithm, and say why in
// CHANGES.md.
func TestClassicFDGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds in the Go loops.
		t.Skip("digests are pinned for amd64")
	}
	const n, d = 1500, 256
	rng := rand.New(rand.NewSource(20261019))
	rows := make([][]float64, n)
	times := make([]float64, n)
	for i := range rows {
		// A decaying spectrum, so shrinks keep a varying number of
		// directions rather than all or none.
		rows[i] = randRow(rng, d)
		for j := range rows[i] {
			rows[i][j] /= 1 + float64(j)/16
		}
		times[i] = float64(i + 1)
	}
	type sketch interface {
		UpdateBatch(rows [][]float64, ts []float64)
		Query(t float64) *mat.Dense
		MarshalBinary() ([]byte, error)
	}
	check := func(name string, sk sketch, wantBlob, wantQuery string) {
		t.Helper()
		for lo := 0; lo < n; lo += 64 {
			hi := lo + 64
			if hi > n {
				hi = n
			}
			sk.UpdateBatch(rows[lo:hi], times[lo:hi])
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := bytesDigest(blob); got != wantBlob {
			t.Errorf("%s snapshot sha256 = %s, want %s", name, got, wantBlob)
		}
		if got := bitsDigest(sk.Query(float64(n)).Data()); got != wantQuery {
			t.Errorf("%s Query bits sha256 = %s, want %s", name, got, wantQuery)
		}
	}
	check("LM-FD", NewLMFD(window.Seq(500), d, 64, 8),
		"a47176c1b0d08b493bc24002b2a1cb6ff07832d023412eaa582754047747a443",
		"f6bb31f05a0233fdc0eaa496bec4318ab75f17ab11df23435d13722d8608fc91")
	check("DS-FD", NewDSFD(DSFDConfig{N: 500, Ell: 64, RSlack: 1.01}, d),
		"bdef76766d7a097593200e2a2501f1e5cae25e1ab7f6690c9966fc0bd07c5e9c",
		"465a06f0db3c960cd0f312b38f7501dfb2a1506695a045446631c18fb26c129e")
}
