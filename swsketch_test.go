package swsketch_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"swsketch"
)

// These tests exercise the public facade end-to-end the way a
// downstream user would: construct a sketch, stream rows, query, and
// measure error with the exported oracle.

func randRow(rng *rand.Rand, d int) []float64 {
	r := make([]float64, d)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return r
}

func TestPublicAPISequenceWindow(t *testing.T) {
	const d, win = 8, 200
	spec := swsketch.Seq(win)
	rng := rand.New(rand.NewSource(1))

	sketches := []swsketch.WindowSketch{
		swsketch.NewSWR(spec, 20, d, 1),
		swsketch.NewSWOR(spec, 20, d, 2),
		swsketch.NewSWORAll(spec, 20, d, 3),
		swsketch.NewLMFD(spec, d, 16, 6),
		swsketch.NewLMHash(spec, d, 128, 6, 4),
		swsketch.NewDIFD(swsketch.DIConfig{N: win, R: 40, L: 5, Ell: 32, RSlack: 2}, d),
		swsketch.NewBest(spec, 8, d),
		swsketch.NewConcurrent(swsketch.NewLMFD(spec, d, 16, 6)),
	}
	oracle := swsketch.NewExactWindow(spec, d)
	for i := 0; i < 1000; i++ {
		row := randRow(rng, d)
		tt := float64(i)
		oracle.Update(row, tt)
		for _, sk := range sketches {
			sk.Update(row, tt)
		}
	}
	for _, sk := range sketches {
		b := sk.Query(999)
		if b.Cols() != d {
			t.Fatalf("%s: query cols = %d", sk.Name(), b.Cols())
		}
		if e := oracle.CovaErr(b); e > 0.9 {
			t.Fatalf("%s: error %v out of range", sk.Name(), e)
		}
		if sk.RowsStored() <= 0 {
			t.Fatalf("%s: RowsStored = %d", sk.Name(), sk.RowsStored())
		}
	}
}

func TestPublicAPITimeWindow(t *testing.T) {
	const d = 6
	spec := swsketch.TimeSpan(50)
	rng := rand.New(rand.NewSource(2))
	lm := swsketch.NewLMFD(spec, d, 16, 6)
	oracle := swsketch.NewExactWindow(spec, d)
	tt := 0.0
	for i := 0; i < 2000; i++ {
		tt += rng.ExpFloat64()
		row := randRow(rng, d)
		lm.Update(row, tt)
		oracle.Update(row, tt)
	}
	if e := oracle.CovaErr(lm.Query(tt)); e > 0.5 {
		t.Fatalf("time-window LM-FD error = %v", e)
	}
}

func TestPublicAPILinearAlgebra(t *testing.T) {
	a := swsketch.FromRows([][]float64{{3, 0}, {0, 4}, {0, 3}})
	s := swsketch.SingularValues(a)
	if len(s) != 2 || s[0] < s[1] {
		t.Fatalf("singular values = %v", s)
	}
	res := swsketch.SVD(a)
	if len(res.S) != 2 {
		t.Fatalf("SVD components = %d", len(res.S))
	}
	b := swsketch.RankK(a, 1)
	if b.Rows() != 1 || b.Cols() != 2 {
		t.Fatalf("RankK dims = %d×%d", b.Rows(), b.Cols())
	}
	if err := swsketch.CovarianceError(a.Gram(), a.FrobeniusSq(), swsketch.RankK(a, 2)); err > 1e-8 {
		t.Fatalf("full-rank covariance error = %v", err)
	}
}

func TestPublicAPIStreamingFD(t *testing.T) {
	fd := swsketch.NewFD(8, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		fd.Update(randRow(rng, 4))
	}
	if fd.Matrix().Cols() != 4 {
		t.Fatal("FD matrix shape wrong")
	}
	var m swsketch.Mergeable = fd
	m.Merge(swsketch.NewFD(8, 4))
}

func TestPublicAPIDatasets(t *testing.T) {
	for _, ds := range []*swsketch.Dataset{
		swsketch.Synthetic(swsketch.SyntheticConfig{N: 50, D: 10, Seed: 1}),
		swsketch.BIBD(swsketch.BIBDConfig{V: 7, K: 3, N: 50, Seed: 1}),
		swsketch.PAMAP(swsketch.PAMAPConfig{N: 50, D: 10, SkewAt: -1, Seed: 1}),
		swsketch.Wiki(swsketch.WikiConfig{N: 50, D: 40, Seed: 1}),
		swsketch.Rail(swsketch.RailConfig{N: 50, D: 40, Seed: 1}),
	} {
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if ds.N() != 50 {
			t.Fatalf("%s: n = %d", ds.Name, ds.N())
		}
	}
}

func TestPublicAPIEHNorms(t *testing.T) {
	spec := swsketch.Seq(100)
	nt := swsketch.NewEHNorms(spec, 0.1)
	swr := swsketch.NewSWR(spec, 4, 2, 9)
	swr.SetNormTracker(nt)
	for i := 0; i < 500; i++ {
		swr.Update([]float64{1, 1}, float64(i))
	}
	if b := swr.Query(499); b.Rows() == 0 {
		t.Fatal("EH-backed SWR returned nothing")
	}
}

func TestPublicAPIServer(t *testing.T) {
	sk := swsketch.NewLMFD(swsketch.Seq(10), 2, 4, 3)
	srv := swsketch.NewServer(sk, 2)
	if srv.Handler() == nil {
		t.Fatal("nil handler")
	}
}

func TestPublicAPIProjectionError(t *testing.T) {
	a := swsketch.FromRows([][]float64{{1, 0}, {0, 1}, {2, 0}})
	b := swsketch.RankK(a, 1)
	if pe := swsketch.ProjectionError(a, b, 1); pe < 0.99 || pe > 1.01 {
		t.Fatalf("projection error = %v, want ≈ 1", pe)
	}
}

func TestPublicAPIRemainingWrappers(t *testing.T) {
	// Exercise the facade wrappers not touched by the scenario tests.
	d := 4
	cfg := swsketch.DIConfig{N: 64, R: 40, L: 4, Ell: 64, MinEll: 8, RSlack: 2}
	rng := rand.New(rand.NewSource(1))
	sketches := []swsketch.WindowSketch{
		swsketch.NewDIRP(cfg, d, 1),
		swsketch.NewDIHash(cfg, d, 1),
		swsketch.NewLMRP(swsketch.Seq(64), d, 32, 4, 2),
		swsketch.NewUnboundedFD(8, d),
		swsketch.NewZero(d),
	}
	for i := 0; i < 200; i++ {
		row := randRow(rng, d)
		for _, sk := range sketches {
			sk.Update(row, float64(i))
		}
	}
	for _, sk := range sketches {
		if b := sk.Query(199); b.Cols() != d && b.Rows() != 0 {
			t.Fatalf("%s: bad query shape", sk.Name())
		}
	}

	// Matrix helpers.
	m := swsketch.NewDense(2, 2)
	m.Set(0, 0, 2)
	if swsketch.SubspaceDistance(swsketch.ComputePCA(m, 1), swsketch.ComputePCA(m, 1)) > 1e-9 {
		t.Fatal("SubspaceDistance of identical basis")
	}
	if swsketch.ResidualEnergy(m, swsketch.ComputePCA(m, 1)) > 1e-9 {
		t.Fatal("ResidualEnergy of own basis")
	}

	// Sparse helpers.
	sr := swsketch.NewSparseRow([]int{1}, []float64{2}, d)
	if sr.SqNorm() != 4 {
		t.Fatal("sparse wrapper broken")
	}
	if swsketch.SparseFromDense([]float64{0, 3}).Nnz() != 1 {
		t.Fatal("SparseFromDense wrapper broken")
	}
	sk := swsketch.NewLMFD(swsketch.Seq(8), d, 4, 3)
	sk.Update(sr.Dense(d), 0)
	if sk.Query(0).FrobeniusSq() != 4 {
		t.Fatal("densified sparse row lost")
	}
}

func TestPublicAPILoaders(t *testing.T) {
	mm := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3\n"
	ds, err := swsketch.ReadMatrixMarket("m", strings.NewReader(mm))
	if err != nil || ds.Rows[0][0] != 3 {
		t.Fatalf("ReadMatrixMarket: %v %v", err, ds)
	}
	pp, err := swsketch.ReadPAMAP("p", strings.NewReader("1 0 5 6\n"))
	if err != nil || pp.D() != 2 {
		t.Fatalf("ReadPAMAP: %v", err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := swsketch.ReadCSV("m", &buf)
	if err != nil || back.N() != 2 {
		t.Fatalf("ReadCSV: %v", err)
	}
}

func TestPublicAPIAutoConfig(t *testing.T) {
	spec := swsketch.Seq(100)
	for _, sk := range []swsketch.WindowSketch{
		swsketch.AutoLMFD(spec, 4, 0.1),
		swsketch.AutoSWR(spec, 4, 0.1, 1),
		swsketch.AutoDIFD(100, 4, 0.1, 20, 5),
	} {
		sk.Update([]float64{1, 2, 0, 0}, 0)
		if sk.Query(0).Cols() != 4 {
			t.Fatalf("%s: bad query", sk.Name())
		}
	}
}

// TestScenarioEveryDataset runs the recommended sketch end-to-end over
// every paper dataset generator through the public API — the smoke a
// downstream adopter would run first.
func TestScenarioEveryDataset(t *testing.T) {
	type scenario struct {
		ds   *swsketch.Dataset
		spec swsketch.Spec
	}
	scenarios := map[string]scenario{
		"SYNTHETIC": {swsketch.Synthetic(swsketch.SyntheticConfig{N: 2500, D: 24, SignalDim: 12, Seed: 1}), swsketch.Seq(500)},
		"BIBD":      {swsketch.BIBD(swsketch.BIBDConfig{V: 10, K: 4, N: 2500, Seed: 2}), swsketch.Seq(500)},
		"PAMAP":     {swsketch.PAMAP(swsketch.PAMAPConfig{N: 2500, D: 20, SkewAt: -1, Seed: 3}), swsketch.Seq(500)},
		"WIKI":      {swsketch.Wiki(swsketch.WikiConfig{N: 2500, D: 60, Seed: 4}), swsketch.TimeSpan(300)},
		"RAIL":      {swsketch.Rail(swsketch.RailConfig{N: 2500, D: 60, Seed: 5}), swsketch.TimeSpan(1000)},
	}
	for name, sc := range scenarios {
		sc := sc
		t.Run(name, func(t *testing.T) {
			sketch := swsketch.NewLMFD(sc.spec, sc.ds.D(), 24, 8)
			oracle := swsketch.NewExactWindow(sc.spec, sc.ds.D())
			for i, row := range sc.ds.Rows {
				tt := sc.ds.Times[i]
				sketch.Update(row, tt)
				oracle.Update(row, tt)
			}
			last := sc.ds.Times[sc.ds.N()-1]
			b := sketch.Query(last)
			if e := oracle.CovaErr(b); e > 0.45 {
				t.Fatalf("LM-FD error on %s = %v", name, e)
			}
			// The PCA pipeline must run on every dataset's output.
			if p := swsketch.ComputePCA(b, 3); len(p.Explained) == 0 {
				t.Fatal("PCA produced nothing")
			}
		})
	}
}

// TestPaperDimensionWiki runs the WIKI pipeline at the paper's true
// vocabulary size (d = 7047), with LM storing its raw rows sparsely —
// the configuration the default harness scales down — and confirms the
// sketch stays accurate and far smaller than the window.
func TestPaperDimensionWiki(t *testing.T) {
	if testing.Short() {
		t.Skip("high-dimensional smoke test")
	}
	ds := swsketch.Wiki(swsketch.WikiConfig{N: 3000, D: 7047, Seed: 13})
	delta := (ds.Times[ds.N()-1] - ds.Times[0]) / 3
	spec := swsketch.TimeSpan(delta)
	sketch := swsketch.NewLMFD(spec, ds.D(), 16, 6)
	oracle := swsketch.NewExactWindow(spec, ds.D())
	for i, row := range ds.Rows {
		tt := ds.Times[i]
		sketch.Update(row, tt)
		oracle.Update(row, tt)
	}
	last := ds.Times[ds.N()-1]
	b := sketch.Query(last)
	if b.Cols() != 7047 {
		t.Fatalf("cols = %d", b.Cols())
	}
	if e := oracle.CovaErr(b); e > 0.35 {
		t.Fatalf("d=7047 LM-FD error = %v", e)
	}
	// At this window size the LM structure floor (L·b·ℓ) is close to
	// the window, so only modest row savings are possible; the memory
	// saving is real regardless (rows × d floats).
	if sketch.RowsStored() >= oracle.Len() {
		t.Fatalf("sketch %d rows vs window %d — no savings at all", sketch.RowsStored(), oracle.Len())
	}
}

// TestPublicAPIObservability exercises the tracing and auditing
// facade: attach a tracer to a sketch, audit it against the exact
// shadow, and bridge both into a metrics registry.
func TestPublicAPIObservability(t *testing.T) {
	const d, win = 6, 100
	spec := swsketch.Seq(win)
	rng := rand.New(rand.NewSource(7))

	tr := swsketch.NewTracer(1024)
	tr.Enable()
	sk := swsketch.NewLMFD(spec, d, 8, 4)
	var traceable swsketch.Traceable = sk
	traceable.SetTracer(tr)

	reg := swsketch.NewMetricsRegistry()
	swsketch.RegisterRuntimeMetrics(reg)
	swsketch.RegisterTracer(reg, tr)
	aud := swsketch.NewAuditor(swsketch.AuditConfig{Spec: spec, D: d, Stride: 32}, reg)

	for start := 0; start < 256; start += 32 {
		rows := make([][]float64, 32)
		times := make([]float64, 32)
		for i := range rows {
			rows[i] = randRow(rng, d)
			times[i] = float64(start + i)
		}
		sk.UpdateBatch(rows, times)
		aud.ObserveBatch(rows, times, sk.Query)
	}

	if tr.Total() == 0 {
		t.Fatal("tracer recorded no structural events")
	}
	st := aud.Status()
	if st.Evaluations == 0 || st.CovaErr < 0 {
		t.Fatalf("audit status %+v", st)
	}
	out := reg.Expose()
	for _, want := range []string{"swsketch_go_goroutines", "swsketch_trace_events", "swsketch_audit_cova_err"} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry missing %q", want)
		}
	}

	// The full observability stack over HTTP: trace + audit + logs.
	srv := swsketch.NewServer(swsketch.NewLMFD(spec, d, 8, 4), d,
		swsketch.WithMetrics(swsketch.NewMetricsRegistry()),
		swsketch.WithTrace(swsketch.NewTracer(256)),
		swsketch.WithAudit(swsketch.NewAuditor(swsketch.AuditConfig{Spec: spec, D: d}, nil)),
	)
	if srv.Handler() == nil {
		t.Fatal("nil handler")
	}
}
