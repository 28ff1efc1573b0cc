package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSpillRestoreBitIdentical is the property behind the eviction
// design: for every snapshot-capable framework, an evicted-then-
// restored tenant answers Query bit-identically to the never-evicted
// sketch, across several ingest/evict/restore cycles.
func TestSpillRestoreBitIdentical(t *testing.T) {
	frameworks := []Config{
		{Framework: "lm-fd", Size: 48, D: 5, Ell: 8, B: 4},
		{Framework: "swr", Size: 48, D: 5, Ell: 6, Seed: 3},
		{Framework: "swor", Size: 48, D: 5, Ell: 6, Seed: 3},
		{Framework: "swor-all", Size: 48, D: 5, Ell: 6, Seed: 3},
		{Framework: "lm-fd", Window: "time", Size: 32.5, D: 5, Ell: 8, B: 4},
		{Framework: "ds-fd", Size: 48, D: 5, Ell: 8},
		{Framework: "ds-fd", Size: 48, D: 8, Ell: 4, FDBuffer: 2, FDAlpha: 0.5},
		{Framework: "lm-amm", Size: 48, D: 6, DB: 2, Ell: 8, B: 4},
		{Framework: "lm-amm", Window: "time", Size: 32.5, D: 5, DB: 2, Ell: 8, B: 4, FDBuffer: 2},
		{Framework: "di-amm", Size: 48, D: 6, DB: 3, Ell: 16, L: 3, R: 16},
	}
	for _, cfg := range frameworks {
		cfg := cfg
		name := cfg.Framework + "/" + cfg.normalize().Window
		t.Run(name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			r := mustNew(t, WithSpillDir(t.TempDir()), WithEvictTTL(time.Minute), WithClock(clk.Now))
			tn, err := r.Create("p", cfg)
			if err != nil {
				t.Fatal(err)
			}
			t0 := 0.0
			for cycle := 0; cycle < 3; cycle++ {
				ingestRows(t, tn, cfg.D, 60, t0)
				t0 += 60
				want := queryBits(t, tn, t0-1)
				clk.Advance(2 * time.Minute)
				if n := r.Sweep(); n != 1 {
					t.Fatalf("cycle %d: Sweep evicted %d, want 1", cycle, n)
				}
				if tn.Resident() {
					t.Fatalf("cycle %d: still resident", cycle)
				}
				got := queryBits(t, tn, t0-1) // Acquire restores
				if !bitsEqual(want, got) {
					t.Fatalf("cycle %d: restored answer differs from pre-evict answer", cycle)
				}
				if c := tn.Config(); c.FDBuffer != cfg.FDBuffer || c.FDAlpha != cfg.FDAlpha {
					t.Fatalf("cycle %d: restored config has fd_buffer=%d fd_alpha=%v, want %d, %v",
						cycle, c.FDBuffer, c.FDAlpha, cfg.FDBuffer, cfg.FDAlpha)
				}
			}
		})
	}
}

// TestSpillScanOnRestart builds a registry over a spill directory left
// by a previous registry and checks the fleet resumes lazily with
// identical answers.
func TestSpillScanOnRestart(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r1 := mustNew(t, WithSpillDir(dir), WithEvictTTL(time.Minute), WithClock(clk.Now))
	want := make(map[string][][]uint64)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("restart-%d", i)
		tn, err := r1.Create(id, lmCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		ingestRows(t, tn, 4, 40+10*i, 0)
		want[id] = queryBits(t, tn, float64(40+10*i-1))
	}
	clk.Advance(time.Hour)
	if n := r1.Sweep(); n != 5 {
		t.Fatalf("Sweep spilled %d, want 5", n)
	}

	// "Restart": a fresh registry over the same directory.
	r2 := mustNew(t, WithSpillDir(dir))
	if r2.Len() != 5 {
		t.Fatalf("restarted Len = %d, want 5", r2.Len())
	}
	for id, bits := range want {
		tn, ok := r2.Get(id)
		if !ok {
			t.Fatalf("tenant %s missing after restart", id)
		}
		if tn.Resident() {
			t.Fatalf("tenant %s eagerly resident (restore should be lazy)", id)
		}
		if tn.Algorithm() != "LM-FD" {
			t.Fatalf("tenant %s algorithm = %q", id, tn.Algorithm())
		}
		at := float64(tn.Updates() - 1)
		if got := queryBits(t, tn, at); !bitsEqual(bits, got) {
			t.Fatalf("tenant %s restarted answer differs", id)
		}
	}
	// Restore consumed the spill files; creating a colliding tenant in
	// a third registry over the same dir starts clean.
	left, _ := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	if len(left) != 0 {
		t.Fatalf("%d spill files left after restores", len(left))
	}
}

// TestRestoreCorruptSpill verifies a damaged spill file surfaces as an
// Acquire error, not a panic, and leaves the tenant spilled.
func TestRestoreCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithSpillDir(dir), WithEvictTTL(time.Minute), WithClock(clk.Now))
	tn, err := r.Create("corrupt", lmCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	ingestRows(t, tn, 4, 30, 0)
	clk.Advance(time.Hour)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d", n)
	}
	path := r.spillPath("corrupt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tn.Acquire(); err == nil {
		tn.Release()
		t.Fatal("Acquire succeeded on a truncated spill file")
	} else if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "truncated") {
		t.Logf("acquire error: %v", err)
	}
	if tn.Resident() {
		t.Fatal("tenant marked resident after failed restore")
	}
}

// TestSpillPathSanitises checks hostile IDs map to flat filenames.
func TestSpillPathSanitises(t *testing.T) {
	r := mustNew(t, WithSpillDir(t.TempDir()))
	for _, id := range []string{"../../etc/passwd", "a/b/c", strings.Repeat("z", MaxIDLen)} {
		p := r.spillPath(id)
		if filepath.Dir(p) != filepath.Clean(r.spillDir) {
			t.Fatalf("spillPath(%q) = %q escapes the spill dir", id, p)
		}
		if !strings.HasSuffix(p, spillExt) {
			t.Fatalf("spillPath(%q) = %q lacks the %s suffix", id, p, spillExt)
		}
	}
}
