package main

// Workloads: the tenant fleets, the row pools and the per-connection
// operation generators. Every operation sequence is a pure function of
// (workload, seed, connection). A generator never looks at a server
// reply, so the untraced HTTP run, the in-process traced replay and the
// correctness gate all regenerate exactly the same sequence, and every
// tenant is owned by one connection so its input stream is fixed from
// run to run.
//
// The seed draws where each tenant's stream starts in its dimension's
// row pool, seeds each connection's generator (Zipf draws, operation
// mix, sparse/v1/reject choices, churn), decides which tenant holds
// each Zipf rank, and orders monitor's timetable slots. The pools and
// the traffic's shape (Zipf exponent, operation shares, rates, the
// framework at each Zipf rank) are fixed per workload, so a seed
// changes which tenants are hot, which rows each sketch sees and the
// order of operations, not how much work of each kind arrives.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"swsketch/internal/registry"
)

// Workload names.
const (
	wlIngestFrames = "ingest-frames"
	wlMonitor      = "monitor"
	wlFleetJSON    = "fleet-json"
)

// conformanceBound is the error bound the conformance suite asserts for
// each framework (internal/conformance Cases, MaxErr): covariance error,
// or correlation error for the paired frameworks.
var conformanceBound = map[string]float64{
	"swr": 0.5, "swor": 0.5, "swor-all": 0.5,
	"lm-fd": 0.35, "lm-hash": 0.8, "di-fd": 0.6, "ds-fd": 0.35,
	"lm-amm": 0.35, "di-amm": 0.6,
}

// deterministic lists the frameworks whose snapshots are a function of
// their input alone (conformance Deterministic flag).
var deterministic = map[string]bool{"lm-fd": true, "ds-fd": true, "lm-amm": true}

// Monitor's open-loop offered rates, per tenant. BENCHMARK.json repeats
// them in the workload's description.
const (
	monitorBlockRows  = 8
	monitorBlocksPerS = 8.0
	monitorWindow     = 500
	monitorPrefill    = 640 // rows per tenant before measuring (≥ window)
)

// monitorQueriesPerS is each tenant's query rate by framework. The
// rates put the median query inside the cheaper lm-fd cells and the p90
// inside the slowest lm-fd cell, away from the cost gaps between
// frameworks, and keep each connection busy about a fifth of the time.
// lm-amm, the slowest by far, is queried about once per tenant per run,
// so its few long holds stay above the ingest-ack p99 instead of
// deciding it.
var monitorQueriesPerS = map[string]float64{"lm-fd": 0.75, "ds-fd": 0.25, "di-fd": 0.25, "lm-amm": 0.05}

// fleetOpsPerS is fleet-json's open-loop offered rate per connection,
// about half of what the 2-vCPU reference host served in a closed loop
// (some 1500 operations per second over both connections). The
// workload runs open loop because of its -evict-ttl: in a closed loop a
// faster host touches more tenants per TTL, so it restores fewer per
// operation, and the CPU per row and memory tracked the host's speed.
// On a fixed timetable the same tenants go idle past the TTL whatever
// the host's speed. BENCHMARK.json repeats the rate in the workload's
// description.
const fleetOpsPerS = 350.0

// Closed-loop shapes.
const (
	framesBlockRows   = 256
	framesLeaseBlocks = 8
	// framesCycle is the length of a connection's repeating lease
	// sequence (see zipfCycle). Each lease fills its tenant's window, so
	// the tenants a run reaches, and with them the server's memory, do
	// not depend on how fast the host ran: a run completes the cycle
	// even at a third of the usual speed.
	framesCycle  = 96
	framesWindow = 2048
	fleetWindow  = 128
)

// tenant is one fleet member.
type tenant struct {
	idx  int
	id   string
	cfg  registry.Config
	conn int // owning connection
}

func (t *tenant) fw() string { return t.cfg.Framework }

// paired reports an AMM tenant and its A-side width.
func (t *tenant) paired() (int, bool) {
	if t.cfg.DB > 0 {
		return t.cfg.D - t.cfg.DB, true
	}
	return 0, false
}

// windowRows is the window extent in rows: every generated stream
// advances its timestamp by exactly 1 per row, so sequence and time
// windows both cover Size rows.
func (t *tenant) windowRows() int { return int(t.cfg.Size) }

// workload is one fully specified benchmark workload for a seed.
type workload struct {
	name    string
	seed    int64
	conns   int
	tenants []*tenant
	pools   map[int][][]float64 // row pools by dimension
	dur     time.Duration       // open-loop schedule length
	// rank maps a Zipf rank to a tenant, per connection: a seeded
	// shuffle among tenants of identical configuration, so the hot set
	// moves with the seed while the framework at each rank stays put.
	rank [][]int
	// slot is each tenant's place in monitor's evenly spread phases.
	slot []int
	// server flags beyond the common production set
	serverFlags []string
}

// newWorkload builds the fleet for (name, seed).
func newWorkload(name string, seed int64, conns int, dur time.Duration) (*workload, error) {
	w := &workload{name: name, seed: seed, conns: conns, pools: map[int][][]float64{}, dur: dur}
	add := func(cfg registry.Config) {
		i := len(w.tenants)
		w.tenants = append(w.tenants, &tenant{idx: i, id: fmt.Sprintf("t%04d", i), cfg: cfg, conn: i % conns})
	}
	switch name {
	case wlIngestFrames:
		// ~1000 tenants at d=64: mostly lm-fd ℓ=16, every tenth a ds-fd,
		// di-fd or lm-hash. The framework at each Zipf rank is the same
		// for every seed; which tenant holds the rank is not.
		for i := 0; i < 1000; i++ {
			cfg := registry.Config{Framework: "lm-fd", Window: "sequence", Size: framesWindow, D: 64, Ell: 16}
			switch i % 10 {
			case 3:
				cfg.Framework = "ds-fd"
			case 6:
				cfg.Framework, cfg.L, cfg.R = "di-fd", 5, 64
			case 9:
				cfg.Framework, cfg.Ell = "lm-hash", 64
			}
			add(cfg)
		}
	case wlMonitor:
		// One tenant per cell of framework × d × ℓ. The slowest cell
		// (lm-amm, d=256, ℓ=64: about a second per query) gets a
		// connection of its own, so waiting behind its queries shows
		// up only on its own ingest, where its tenant lock would hold
		// that ingest anyway.
		for _, fw := range []string{"lm-fd", "ds-fd", "di-fd", "lm-amm"} {
			for _, d := range []int{64, 256} {
				for _, ell := range []int{24, 64} {
					cfg := registry.Config{Framework: fw, Window: "sequence", Size: monitorWindow, D: d, Ell: ell}
					switch fw {
					case "di-fd":
						cfg.L, cfg.R = 5, float64(d)
					case "lm-amm":
						cfg.DB = d / 4
					}
					add(cfg)
				}
			}
		}
		for _, t := range w.tenants {
			t.conn = 0
		}
		w.tenants[len(w.tenants)-1].conn = conns - 1
	case wlFleetJSON:
		// ~4000 tenants at d=16 over every framework that can spill,
		// alternating sequence and time windows where the framework
		// supports both.
		fws := []string{"swr", "swor", "swor-all", "lm-fd", "ds-fd", "lm-amm", "di-amm"}
		for i := 0; i < 4000; i++ {
			fw := fws[i%len(fws)]
			cfg := registry.Config{Framework: fw, Window: "sequence", Size: fleetWindow, D: 16, Ell: 16}
			switch fw {
			case "swr", "swor", "swor-all":
				cfg.Ell = 32
			case "lm-amm":
				cfg.DB = 8
			case "di-amm":
				cfg.DB, cfg.L, cfg.R = 8, 4, 16
			}
			if (i/len(fws))%2 == 1 && fw != "ds-fd" && fw != "di-amm" {
				cfg.Window = "time"
			}
			add(cfg)
		}
		w.serverFlags = []string{"-tenants-max", "1000", "-evict-ttl", "2s"}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlIngestFrames, wlMonitor, wlFleetJSON)
	}
	for _, t := range w.tenants {
		if w.pools[t.cfg.D] == nil {
			w.pools[t.cfg.D] = newRowPool(t.cfg.D)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	w.slot = rng.Perm(len(w.tenants))
	w.rank = make([][]int, conns)
	for c := range w.rank {
		var owned []int
		byCfg := map[registry.Config][]int{}
		for _, t := range w.tenants {
			if t.conn == c {
				owned = append(owned, t.idx)
				byCfg[t.cfg] = append(byCfg[t.cfg], t.idx)
			}
		}
		shuffled := map[registry.Config]bool{}
		for _, tn := range owned {
			cfg := w.tenants[tn].cfg
			same := byCfg[cfg]
			if !shuffled[cfg] {
				rng.Shuffle(len(same), func(a, b int) { same[a], same[b] = same[b], same[a] })
				shuffled[cfg] = true
			}
			w.rank[c] = append(w.rank[c], same[0])
			byCfg[cfg] = same[1:]
		}
	}
	return w, nil
}

// openLoop reports whether the workload runs on a timetable (monitor,
// fleet-json) rather than in a closed loop to a deadline.
func (w *workload) openLoop() bool { return w.name != wlIngestFrames }

// needsSpill reports whether the server runs with a spill directory.
func (w *workload) needsSpill() bool { return w.name == wlFleetJSON }

const poolRows = 4096

// newRowPool builds a fixed set of rows with low-rank structure plus
// noise, every squared norm capped at d (the di-fd/di-amm declared R).
// A tenant's row k is pool row (offset+k) mod poolRows.
func newRowPool(d int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(d)))
	const rank = 8
	basis := make([][]float64, rank)
	for f := range basis {
		basis[f] = make([]float64, d)
		for j := range basis[f] {
			basis[f][j] = rng.NormFloat64() / math.Sqrt(float64(d))
		}
	}
	p := make([][]float64, poolRows)
	for i := range p {
		r := make([]float64, d)
		for f := 0; f < rank; f++ {
			c := rng.NormFloat64() * float64(rank-f)
			for j := range r {
				r[j] += c * basis[f][j]
			}
		}
		s := 0.0
		for j := range r {
			r[j] += 0.3 * rng.NormFloat64()
			s += r[j] * r[j]
		}
		if s > float64(d) {
			sc := math.Sqrt(float64(d) / s)
			for j := range r {
				r[j] *= sc
			}
		}
		p[i] = r
	}
	return p
}

// batch is a run of consecutive rows of one tenant's current epoch.
// Rows k0..k0+n-1 carry timestamps k0+1..k0+n. A sparse batch sends
// each row as idx/val pairs holding every fourth coordinate.
type batch struct {
	tn     int
	epoch  int
	k0, n  int
	sparse bool
}

// offset is where a tenant epoch's stream starts in its pool.
func (w *workload) offset(tn, epoch int) int {
	h := uint64(w.seed)*0x9e3779b97f4a7c15 ^ uint64(tn)*0xbf58476d1ce4e5b9 ^ uint64(epoch+1)*0x94d049bb133111eb
	h ^= h >> 31
	return int(h % poolRows)
}

// rowAt returns row k of a batch's tenant epoch: a pool row, or its
// sparsified copy in a sparse batch.
func (w *workload) rowAt(b batch, k int) []float64 {
	t := w.tenants[b.tn]
	src := w.pools[t.cfg.D][(w.offset(b.tn, b.epoch)+k)%poolRows]
	if !b.sparse {
		return src
	}
	r := make([]float64, len(src))
	for j := k % 4; j < len(r); j += 4 {
		r[j] = src[j]
	}
	return r
}

// rows materialises a batch's dense rows and timestamps.
func (w *workload) rows(b batch) ([][]float64, []float64) {
	rows := make([][]float64, b.n)
	times := make([]float64, b.n)
	for i := range rows {
		rows[i] = w.rowAt(b, b.k0+i)
		times[i] = float64(b.k0 + i + 1)
	}
	return rows, times
}

// Operation kinds.
type opKind uint8

const (
	opLease  opKind = iota // ingest-frames: a stream lease of frame blocks to one tenant
	opBlock                // monitor: one frame block on a short stream request
	opQuery                // monitor: approximation, amm or pca?k=3
	opRows                 // fleet-json: one tenant's JSON rows
	opBulk                 // fleet-json: a multi-tenant JSON bulk request
	opChurn                // fleet-json: DELETE then PUT of a tenant
	opReject               // fleet-json: a batch the server must refuse, then a stats probe
)

var opNames = [...]string{"lease", "block", "query", "rows", "bulk", "churn", "reject"}

// op is one generated operation. at is the scheduled send offset for
// open-loop workloads.
type op struct {
	kind    opKind
	at      time.Duration
	batches []batch
	tn      int
	query   string // "approximation", "amm" or "pca"
	v1      bool   // sent through the /v1 alias routes
	reject  string // "dim" or "time"
	// model state after the op, for reject probes: the tenant's
	// expected updates (= last timestamp) in its current epoch.
	expectUpdates int
}

// gen produces one connection's operation sequence.
type gen struct {
	w     *workload
	conn  int
	rng   *rand.Rand
	owned []int // tenant indices owned by this connection
	next  []int // per tenant: rows accepted in the current epoch
	epoch []int
	zipf  *rand.Zipf
	cycle []int // ingest-frames: the repeating tenant sequence
	// open-loop schedule (monitor), consumed in order
	sched []op
	pos   int // ops handed out: the schedule index, or the lease or fleet op count
}

// newGen starts connection conn's generator from the beginning.
func newGen(w *workload, conn int) *gen {
	g := &gen{
		w: w, conn: conn,
		rng:   rand.New(rand.NewSource(w.seed*7919 + int64(conn))),
		next:  make([]int, len(w.tenants)),
		epoch: make([]int, len(w.tenants)),
	}
	for _, t := range w.tenants {
		if t.conn == conn {
			g.owned = append(g.owned, t.idx)
		}
	}
	switch w.name {
	case wlIngestFrames:
		for _, k := range zipfCycle(g.rng, 1.2, len(g.owned), framesCycle) {
			g.cycle = append(g.cycle, w.rank[conn][k])
		}
	case wlFleetJSON:
		g.zipf = rand.NewZipf(g.rng, 1.3, 1, uint64(len(g.owned)-1))
	}
	return g
}

// zipfCycle returns n Zipf ranks out of ranks: rank k appears in
// proportion to (1+k)^-s, the law rand.Zipf draws with v=1, rounded by
// largest remainder, in an order rng shuffles. Drawing the n ranks at
// random instead would let each seed's cycle hold a different mix of
// ranks, and with it of frameworks, moving CPU per row and memory with
// the seed.
func zipfCycle(rng *rand.Rand, s float64, ranks, n int) []int {
	p := make([]float64, ranks)
	total := 0.0
	for k := range p {
		p[k] = math.Pow(float64(1+k), -s)
		total += p[k]
	}
	var cycle []int
	frac := make([]float64, ranks)
	for k := range p {
		exact := float64(n) * p[k] / total
		for c := int(exact); c > 0; c-- {
			cycle = append(cycle, k)
		}
		frac[k] = exact - math.Floor(exact)
	}
	order := make([]int, ranks)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] > frac[order[j]] })
	for _, k := range order[:n-len(cycle)] {
		cycle = append(cycle, k)
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// take reserves the next n rows of tenant tn.
func (g *gen) take(tn, n int, sparse bool) batch {
	b := batch{tn: tn, epoch: g.epoch[tn], k0: g.next[tn], n: n, sparse: sparse}
	g.next[tn] += n
	return b
}

// prefill returns the set-up operations: monitor fills every window
// to steady state; the other workloads start empty.
func (g *gen) prefill() []op {
	if g.w.name != wlMonitor {
		return nil
	}
	var ops []op
	for _, tn := range g.owned {
		for left := monitorPrefill; left > 0; {
			o := op{kind: opLease, tn: tn}
			for b := 0; b < framesLeaseBlocks && left > 0; b++ {
				n := min(framesBlockRows, left)
				o.batches = append(o.batches, g.take(tn, n, false))
				left -= n
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// nextOp returns the connection's next operation, or false when an
// open-loop schedule is exhausted.
func (g *gen) nextOp() (op, bool) {
	switch g.w.name {
	case wlIngestFrames:
		tn := g.cycle[g.pos%len(g.cycle)]
		g.pos++
		o := op{kind: opLease, tn: tn}
		for b := 0; b < framesLeaseBlocks; b++ {
			o.batches = append(o.batches, g.take(tn, framesBlockRows, false))
		}
		return o, true
	case wlMonitor:
		if g.sched == nil {
			g.buildSchedule()
		}
		if g.pos >= len(g.sched) {
			return op{}, false
		}
		o := g.sched[g.pos]
		g.pos++
		if o.kind == opBlock {
			o.batches = []batch{g.take(o.tn, monitorBlockRows, false)}
		}
		return o, true
	default:
		// Connections send in turn, spaced evenly on the timetable.
		at := time.Duration((float64(g.pos) + float64(g.conn)/float64(g.w.conns)) * float64(time.Second) / fleetOpsPerS)
		if at >= g.w.dur {
			return op{}, false
		}
		g.pos++
		o := g.fleetOp()
		o.at = at
		return o, true
	}
}

// buildSchedule lays out monitor's open-loop timetable for this
// connection: every owned tenant ingests one block every
// 1/monitorBlocksPerS seconds and is queried at its framework's rate,
// each stream starting at a phase spread evenly over the fleet in the
// seed's slot order.
func (g *gen) buildSchedule() {
	var ops []op
	blockGap := time.Duration(float64(time.Second) / monitorBlocksPerS)
	n := time.Duration(len(g.w.tenants))
	for _, tn := range g.owned {
		t := g.w.tenants[tn]
		queryGap := time.Duration(float64(time.Second) / monitorQueriesPerS[t.fw()])
		slot := time.Duration(g.w.slot[tn])
		for at := blockGap * slot / n; at < g.w.dur; at += blockGap {
			ops = append(ops, op{kind: opBlock, at: at, tn: tn})
		}
		q := 0
		for at := queryGap*slot/n + blockGap/(2*n); at < g.w.dur; at += queryGap {
			kind := "approximation"
			if _, ok := g.w.tenants[tn].paired(); ok {
				kind = "amm"
			} else if q%3 == 2 {
				kind = "pca"
			}
			ops = append(ops, op{kind: opQuery, at: at, tn: tn, query: kind})
			q++
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	g.sched = ops
}

// fleetOp draws one fleet-json operation.
func (g *gen) fleetOp() op {
	pick := func() int { return g.w.rank[g.conn][g.zipf.Uint64()] }
	u := g.rng.Float64()
	switch {
	case u < 0.01:
		tn := pick()
		g.epoch[tn]++
		g.next[tn] = 0
		return op{kind: opChurn, tn: tn}
	case u < 0.04:
		tn := pick()
		kind := "dim"
		if g.next[tn] > 0 && g.rng.Intn(2) == 0 {
			kind = "time"
		}
		return op{kind: opReject, tn: tn, reject: kind, v1: g.rng.Intn(5) == 0, expectUpdates: g.next[tn]}
	case u < 0.30:
		o := op{kind: opBulk, v1: g.rng.Intn(5) == 0}
		seen := map[int]bool{}
		for len(o.batches) < 4 {
			tn := pick()
			if seen[tn] {
				tn = g.owned[g.rng.Intn(len(g.owned))]
				if seen[tn] {
					continue
				}
			}
			seen[tn] = true
			o.batches = append(o.batches, g.take(tn, 4, g.rng.Intn(4) == 0))
		}
		return o
	default:
		tn := pick()
		return op{kind: opRows, tn: tn, v1: g.rng.Intn(5) == 0,
			batches: []batch{g.take(tn, 4+g.rng.Intn(13), g.rng.Intn(4) == 0)}}
	}
}

// history regenerates connection conn's first nOps operations
// (prefill included) and returns every batch tenant tn accepted in its
// final epoch, in order. Rejections never reach the model, so the
// regenerated batches are exactly what the server applied.
func (w *workload) history(conn, nOps, tn int) []batch {
	g := newGen(w, conn)
	var out []batch
	visit := func(o op) {
		if o.kind == opChurn && o.tn == tn {
			out = out[:0]
		}
		for _, b := range o.batches {
			if b.tn == tn {
				out = append(out, b)
			}
		}
	}
	for _, o := range g.prefill() {
		visit(o)
	}
	for i := 0; i < nOps; i++ {
		o, ok := g.nextOp()
		if !ok {
			break
		}
		visit(o)
	}
	return out
}
