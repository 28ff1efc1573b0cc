// Substrate and ablation benchmarks beyond the paper's figures: the
// eigensolver pair that powers FrequentDirections, the streaming
// sketches' update paths (dense vs sparse), the samplers' per-row
// costs, and the exponential histogram.
package swsketch_test

import (
	"fmt"
	"math/rand"
	"testing"

	"swsketch/internal/core"
	"swsketch/internal/eh"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

func randSym(rng *rand.Rand, n int) *mat.Dense {
	m := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func denseRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// BenchmarkAblationEigensolver compares the production QL path with
// the Jacobi reference across the Gram sizes the sketches produce.
func BenchmarkAblationEigensolver(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 48, 128} {
		a := randSym(rng, n)
		b.Run(fmt.Sprintf("QL/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.EigenSym(a)
			}
		})
		b.Run(fmt.Sprintf("Jacobi/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.EigenSymJacobi(a)
			}
		})
	}
}

// BenchmarkAblationStreamingSketch measures the raw streaming update
// paths at matched space (FD and iSVD at 2ℓ buffer rows, Hash, RP).
func BenchmarkAblationStreamingSketch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d := 100
	rows := denseRows(rng, 2048, d)
	b.Run("FD/ell=64", func(b *testing.B) {
		fd := stream.NewFD(64, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fd.Update(rows[i%len(rows)])
		}
	})
	b.Run("ISVD/ell=32", func(b *testing.B) {
		is := stream.NewISVD(32, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			is.Update(rows[i%len(rows)])
		}
	})
	b.Run("Hash/ell=64", func(b *testing.B) {
		h := stream.NewHashFamily(1).NewSketch(64, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Update(rows[i%len(rows)])
		}
	})
	b.Run("RP/ell=64", func(b *testing.B) {
		p := stream.NewRP(64, d, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Update(rows[i%len(rows)])
		}
	})
}

// BenchmarkAblationSparseIngest quantifies the stream-level sparse-update
// win (Hash, RP) on a 1%-dense stream at WIKI-like dimension.
func BenchmarkAblationSparseIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := 2000
	n := 1024
	dense := make([][]float64, n)
	sparse := make([]mat.SparseRow, n)
	for i := range dense {
		row := make([]float64, d)
		for k := 0; k < 20; k++ {
			row[rng.Intn(d)] = rng.NormFloat64()
		}
		dense[i] = row
		sparse[i] = mat.SparseFromDense(row)
	}
	b.Run("Hash/dense", func(b *testing.B) {
		h := stream.NewHashFamily(1).NewSketch(128, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Update(dense[i%n])
		}
	})
	b.Run("Hash/sparse", func(b *testing.B) {
		h := stream.NewHashFamily(1).NewSketch(128, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.UpdateSparse(sparse[i%n])
		}
	})
	b.Run("RP/dense", func(b *testing.B) {
		p := stream.NewRP(64, d, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Update(dense[i%n])
		}
	})
	b.Run("RP/sparse", func(b *testing.B) {
		p := stream.NewRP(64, d, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.UpdateSparse(sparse[i%n])
		}
	})
}

// BenchmarkAblationEH measures the exponential histogram against the
// exact norm buffer at sliding-window scale.
func BenchmarkAblationEH(b *testing.B) {
	b.Run("EH/k=16", func(b *testing.B) {
		h := eh.New(16)
		for i := 0; i < b.N; i++ {
			h.Add(float64(i), 1+float64(i%7))
			if i%64 == 0 {
				h.Estimate(float64(i) - 10000)
			}
		}
	})
	b.Run("ExactNorms", func(b *testing.B) {
		x := window.NewExactNorms(window.Seq(10000))
		for i := 0; i < b.N; i++ {
			x.Add(float64(i), 1+float64(i%7))
			if i%64 == 0 {
				x.FroSq(float64(i))
			}
		}
	})
}

// BenchmarkQueryCost measures the query path (the paper reports update
// cost only; query cost matters for monitoring workloads that probe
// frequently).
func BenchmarkQueryCost(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := 64
	rows := denseRows(rng, 4000, d)
	spec := window.Seq(2000)
	sketches := map[string]core.WindowSketch{
		"SWR":   core.NewSWR(spec, 40, d, 1),
		"SWOR":  core.NewSWOR(spec, 40, d, 2),
		"LM-FD": core.NewLMFD(spec, d, 24, 8),
		// Stacked rows [a|b] with d_b = 16: the query merges COD blocks,
		// whose every shrink is two QRs and an SVD.
		"LM-AMM": core.NewLMAMM(spec, d-16, 16, 24, 8),
	}
	for name, sk := range sketches {
		for i, r := range rows {
			sk.Update(r, float64(i))
		}
		sk := sk
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sk.Query(float64(len(rows) - 1))
			}
		})
	}
}
