package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// eigenGoldenInput builds the seeded symmetric input of one golden
// case: "sym" is an indefinite random symmetric matrix, "gram" the
// full-rank Gram of n×(n+3) Gaussian rows, "lowrank" the Gram of n
// rows spanning only max(1, n/3) random directions, and "dup" the Gram
// of rows that repeat every third row exactly.
func eigenGoldenInput(kind string, n int) *Dense {
	rng := rand.New(rand.NewSource(int64(1000*n) + int64(len(kind))))
	switch kind {
	case "sym":
		return randSym(rng, n)
	case "gram":
		return randDense(rng, n, n+3).GramT()
	case "lowrank":
		r := n / 3
		if r < 1 {
			r = 1
		}
		basis := randDense(rng, r, n+3)
		coef := randDense(rng, n, r)
		return mulNaive(coef, basis).GramT()
	case "dup":
		x := randDense(rng, n, n+3)
		for i := 1; i < n; i++ {
			if i%3 != 0 {
				copy(x.Row(i), x.Row(i-i%3))
			}
		}
		return x.GramT()
	}
	panic("unknown golden kind " + kind)
}

// eigenDigest is the SHA-256 of the IEEE-754 bits of vals followed by
// the row-major bits of v.
func eigenDigest(vals []float64, v *Dense) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range append(append([]float64(nil), vals...), v.data...) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEigenSymGolden pins the exact output bits of EigenSym, values
// and vectors, on seeded full-rank and rank-deficient inputs. The
// digests were recorded from the scalar column-form tred2/tql2; any
// rewrite of the solver (vector kernels, loop order, layout) must
// reproduce them unchanged. Re-pin only for a deliberate change of the
// algorithm, and say why in CHANGES.md.
func TestEigenSymGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds in the Go loops.
		t.Skip("digests are pinned for amd64")
	}
	want := map[string]string{
		"sym/1":       "2be5fbcbaad6357c2649e9d43a47ce441dcad9be92713ca6e87e95d9ececcfe4",
		"gram/1":      "c96efe723041096c1219561ac06d8ef9192e46ae35a6ad69704ecfe83ed76701",
		"lowrank/1":   "6aa0bc6c0dee0715fff9f77f61c23021da9ced45e69d7f648d92bafb19cba19b",
		"dup/1":       "e3982920d26f9905bfc01e6793ae91801082551f0d924fbf1ab67ace2b1e8913",
		"sym/2":       "58ca8777536421b76433c6d25df41972989cbd7f99eb791a0f7e4578a21abc9f",
		"gram/2":      "bb735fdb233c6059b702c7a4db94ad7308e467655b2dbd20fcefc6a8bdf06b23",
		"lowrank/2":   "e45581d31fc4992dc5c05553cc9511162c37d584cd0d84cb6312f7b34b6f3976",
		"dup/2":       "d27f3e478ba2e766a7c6751ad7d81c48a28b29b7670d00ed144900e597dc5d71",
		"sym/3":       "c555452587414db25835c01cc38e685d54e83c6b9fa9d8ce301b22d9b2713d19",
		"gram/3":      "a2b3cd71d19be294776b42125f136c32236ef7b9f38dea80be840a62a70a17b4",
		"lowrank/3":   "192f37dcacd9ca567eb02e910c4d4935933a70a317abe87aaca69fae9c238a19",
		"dup/3":       "6b4dc7d576066af2cf956c4a6b1835b181f01f02382d560eb50784117ae37311",
		"sym/5":       "f270215570196fc888b97025cfcea3aabb0f02863f511333ce37f4ef5f2dda23",
		"gram/5":      "2979c47991fc66759bb268fc8923eabfcec49d784351af7b18370b6fb8aeb3ac",
		"lowrank/5":   "eb7aada4a985a71475da2fdd73ba59aed5746beb921557ef475a184b0da24e52",
		"dup/5":       "0f8e9a18f248139e464027ee316e85e90b9cb8d2a4c5651acd8ba57b7569e423",
		"sym/24":      "4aaa2fe4030bf9310740b2db272b08382d4c82f8f2087579036869607e8c9aad",
		"gram/24":     "64d6dd01886884327bf55f8d10890e39c6d4b265b37b95952449504e8aadffba",
		"lowrank/24":  "9ea44a62696c308981780ba2d2ddadb544ab762681e3dbd2e471767136dc3739",
		"dup/24":      "96312fa6773f4e744e6cfc2f658a6a1973ce4814744bdda351b33ad41867a465",
		"sym/64":      "fd6826e20afe5876fb12394ed5718e8ca7eef728503b09feeac87d18252c68f0",
		"gram/64":     "c523e968bc967c162690369975e29cfae365ab81e0caf20feb9c62b34cd81294",
		"lowrank/64":  "4724d18bd877aafd3237905d88c0031ef057e539d0f066ac1c84102507a4c3bd",
		"dup/64":      "12a41222e68097d1f1ff8ca0fb3f2e0f5f954936e3c6c90e34d590d32311e2fc",
		"sym/130":     "82fc5a3e13c1d446dbaae04defc60afbde7b1ead9d7c8d704043741896bdf73f",
		"gram/130":    "874617067a0aeee6e4131c5a71ec69d24ae92a8115ce1c07873f24cef3912926",
		"lowrank/130": "8491f0e9c9cb9415ed99827d8bf06a78ed4b916a13254826e2c1f13d9dc84d95",
		"dup/130":     "2135a50c74eca49166c0409aa8c8f4aa66c7d716f4852a64db0da311707690ba",
	}
	for _, n := range []int{1, 2, 3, 5, 24, 64, 130} {
		for _, kind := range []string{"sym", "gram", "lowrank", "dup"} {
			name := fmt.Sprintf("%s/%d", kind, n)
			vals, v := EigenSym(eigenGoldenInput(kind, n))
			for _, x := range append(append([]float64(nil), vals...), v.data...) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s: non-finite output %v", name, x)
				}
			}
			got := eigenDigest(vals, v)
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("%s: sha256 = %s, want %s", name, got, w)
			}
		}
	}
}
