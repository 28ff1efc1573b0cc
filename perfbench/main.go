// Command perfbench is swsketch's benchmark. It starts swserve as a
// child process with the production flags (WAL with group commit,
// -metrics, -hotkeys, and a spill directory plus a tenant cap where a
// workload needs them), drives one workload from this process over at
// most nproc connections, checks the server's outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct","attempted","failed","metrics"}.
//
//	perfbench -workload ingest-frames -seed 1 -seconds 15 -trace 0
//
// With -trace 1 it also replays the same operations in-process through
// the layers' public functions with a span around every call, and
// reports the per-layer metrics instead of the end-to-end ones. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload: ingest-frames | monitor | fleet-json")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same operation sequence")
		seconds   = flag.Float64("seconds", 15, "measured phase length")
		trace     = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced replay")
		serverBin = flag.String("server-bin", ".bench_build/bin/swserve", "swserve binary")
		workDir   = flag.String("work-dir", ".bench_build", "directory for run state, spans and results")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds > 0 and -trace 0|1")
		return 2
	}
	conns := runtime.NumCPU()
	w, err := newWorkload(*name, *seed, conns, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	root, _ := os.Getwd()
	res, err := measure(w, root, *serverBin, *workDir, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(*trace == 1)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Maps names the end-to-end metric and workloads a per-layer metric
	// should move; printed in the report, not in the result line.
	Maps string `json:"-"`
}

// result is everything one run reports.
type result struct {
	workload  string
	seed      int64
	host      hostInfo
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// unresolved holds the end-to-end metrics that follow the host's
	// speed directly: throughput, latency and user+system CPU per row.
	// They are printed, but on a host whose CPU steal swings by tens of
	// percent their run-to-run spread exceeds any usable bound, so they
	// stay out of the result line (and BENCHMARK.json) instead of
	// gating.
	unresolved map[string]metric
	notes      []string
	problems   []string
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setUnresolved(name string, v float64, unit string) {
	r.unresolved[name] = metric{Value: v, Unit: unit}
}

// measure runs set-up, the measured phase, the gate and (traced) the
// replays.
func measure(w *workload, root, serverBin, workDir string, seconds float64, traced bool) (*result, error) {
	if _, err := os.Stat(serverBin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	runDir := filepath.Join(workDir, "runs", fmt.Sprintf("%s-%d-%d", w.name, w.seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	procs := runtime.NumCPU()
	res := &result{workload: w.name, seed: w.seed, metrics: map[string]metric{}, unresolved: map[string]metric{}}

	// Set-up: server start, WAL open, tenant provisioning and window
	// pre-fill, repeated on fresh directories; the last one is kept.
	setups := setupRepeats
	if traced {
		setups = 1
	}
	var setupTimes []float64
	var srv *server
	for i := 0; i < setups; i++ {
		// Flush dirty pages first, so one set-up's writeback does not
		// land in the next one's time.
		syscall.Sync()
		start := time.Now()
		s, err := startServer(serverBin, filepath.Join(runDir, fmt.Sprintf("setup%d", i)), w, procs)
		if err != nil {
			return nil, err
		}
		if err := setupFleet(s.base, w); err != nil {
			s.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			s.stop() // its directory goes with runDir at the end
			continue
		}
		srv = s
	}
	defer srv.stop()
	res.host = collectHost(root, srv, procs)

	syscall.Sync()
	m0, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	user0, sys0, err := srv.cpuSplit()
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostCPU()
	stats, wall := drive(srv.base, w, seconds)
	steal1, total1 := hostCPU()
	res.notes = append(res.notes, fmt.Sprintf("host CPU steal during the measured phase: %.1f%%", 100*(steal1-steal0)/max(total1-total0, 1)))
	user1, sys1, err := srv.cpuSplit()
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("server CPU over the measured phase: %.2f s user, %.2f s system", user1-user0, sys1-sys0))
	m1, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	agg := aggregate(stats)
	res.attempted, res.failed = agg.attempted, agg.failed
	res.problems = append(res.problems, agg.failures...)
	opsDone := make([]int, w.conns)
	for c, st := range stats {
		opsDone[c] = st.ops
	}

	gate := runGate(srv.base, w, opsDone)
	res.problems = append(res.problems, gate.problems...)
	res.notes = append(res.notes, gate.errSamples...)
	res.notes = append(res.notes, fmt.Sprintf("digest checks: %d deterministic tenants byte-identical to the same-seed re-run", gate.digests))

	// Open-loop validity: the generator must have kept to its schedule.
	lagP99 := quantile(agg.lags, 0.99)
	if w.openLoop() {
		late := wall.Seconds() - seconds
		if lagP99 > maxLagMS || late > maxBacklogS {
			return nil, fmt.Errorf("run invalid: generator lag p99 %.1f ms (limit %d), schedule overrun %.2f s (limit %.0f s)",
				lagP99, maxLagMS, late, maxBacklogS)
		}
	}
	res.correct = len(res.problems) == 0 && res.failed == 0

	rows := float64(max(agg.rows, 1))
	cpuPerRow := (user1 - user0 + sys1 - sys0) / rows * 1e6
	if !traced {
		res.set("setup_s", median(setupTimes), "s")
		// User CPU is gated; system CPU is mostly the WAL's timed group
		// commit (near-constant per second), so per row it follows the
		// host's speed and stays with the unresolved metrics. User CPU
		// per row still rises under heavy host contention (README.md,
		// "Host noise").
		res.set("user_cpu_us_per_row", (user1-user0)/rows*1e6, "us")
		res.set("sketch_rows", gate.sketchRows, "rows")
		res.set("err_bound_ratio_mean", mean(gate.errRatios), "ratio")
		res.set("server_rss_mb", rss, "MB")
		res.setUnresolved("ingest_rows_per_s", float64(agg.rows)/wall.Seconds(), "rows/s")
		res.setUnresolved("ingest_ack_p50_ms", quantile(agg.acks, 0.5), "ms")
		res.setUnresolved("ingest_ack_p99_ms", quantile(agg.acks, 0.99), "ms")
		if w.name == wlMonitor {
			res.setUnresolved("query_p50_ms", quantile(agg.queries, 0.5), "ms")
			res.setUnresolved("query_p90_ms", quantile(agg.queries, 0.9), "ms")
		}
		res.setUnresolved("cpu_us_per_row", cpuPerRow, "us")
		res.notes = append(res.notes,
			fmt.Sprintf("error_ratio %.6f (%d unexpected of %d attempted)", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted),
			fmt.Sprintf("err_bound_ratio_max %.4f over %d checked answers (must be ≤ 1)", gate.errRatioMax, len(gate.errRatios)),
			fmt.Sprintf("samples: %d ingest acks (tail p%s), %d queries (tail p%s), setups %v s",
				len(agg.acks), tailPct(len(agg.acks)), len(agg.queries), tailPct(len(agg.queries)), fmtList(setupTimes)),
			fmt.Sprintf("generator lag p99 %.2f ms over %d waits; measured wall %.2f s", lagP99, len(agg.lags), wall.Seconds()))
		return res, nil
	}

	// Per-layer: server-side counts from /metrics deltas, then the
	// traced and untraced replays of the same operations.
	kop := float64(max(agg.attempted, 1)) / 1000
	walRows := delta(m0, m1, "swsketch_wal_rows_total")
	restores := delta(m0, m1, "swsketch_registry_tenants_restored_total")
	res.setL("serve.wire_bytes_per_row", float64(agg.wireBytes)/float64(max(agg.rows, 1)), "bytes")
	res.setL("serve.shed", delta(m0, m1, "swsketch_stream_overloaded_total"), "count")
	res.setL("registry.spills_per_kop", delta(m0, m1, `swsketch_registry_tenants_evicted_total{mode="spill"}`)/kop, "1/kop")
	res.setL("registry.restores_per_kop", restores/kop, "1/kop")
	res.setL("registry.resident_hit_ratio", 1-restores/float64(max(touches(w, opsDone), 1)), "ratio")
	res.setL("wal.bytes_per_row", delta(m0, m1, "swsketch_wal_bytes_total")/max(walRows, 1), "bytes")
	res.setL("wal.fsyncs_per_s", delta(m0, m1, "swsketch_wal_fsyncs_total")/wall.Seconds(), "1/s")
	res.setL("wal.fsync_ms.p99", 1000*histQuantile(m0, m1, "swsketch_wal_fsync_seconds", 0.99), "ms")
	res.setL("gen.lag_ms.p99", lagP99, "ms")
	srv.stop()

	spanDir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	tr, err := runReplay(w, opsDone, filepath.Join(runDir, "replay-traced"), true)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, w.seed))
	if err := writeSpans(spanPath, tr.recs); err != nil {
		return nil, err
	}
	plain, err := runReplay(w, opsDone, filepath.Join(runDir, "replay-plain"), false)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	res.layerMetrics(tr, plain, cpuPerRow)
	res.notes = append(res.notes, fmt.Sprintf("spans: %s (%d ops replayed in %.2f s traced, %.2f s untraced)",
		spanPath, sum(opsDone), tr.wall.Seconds(), plain.wall.Seconds()))
	return res, nil
}

// setupRepeats is how many set-ups a run times; setup_s is their
// median.
const setupRepeats = 3

// Open-loop validity limits (monitor, fleet-json).
const (
	maxLagMS    = 20
	maxBacklogS = 1.0
)

// layerMap says which end-to-end metric, on which workload, each
// per-layer metric should move.
var layerMap = map[string]string{
	"binenc.decode_us_per_block":  "cpu_us_per_row, ingest_rows_per_s on ingest-frames",
	"serve.wire_bytes_per_row":    "ingest_rows_per_s on ingest-frames, fleet-json",
	"serve.residual_us_per_row":   "cpu_us_per_row on fleet-json, ingest-frames",
	"serve.encode_us_per_query":   "query_p50_ms on monitor",
	"serve.shed":                  "failed (error_ratio) on ingest-frames",
	"registry.acquire_us.p50":     "ingest_ack_p99_ms on monitor, fleet-json",
	"registry.acquire_us.p99":     "ingest_ack_p99_ms on monitor, fleet-json",
	"registry.restore_ms.p50":     "ingest_ack_p99_ms on fleet-json",
	"registry.spills_per_kop":     "cpu_us_per_row, ingest_ack_p99_ms on fleet-json",
	"registry.restores_per_kop":   "cpu_us_per_row, ingest_ack_p99_ms on fleet-json",
	"registry.resident_hit_ratio": "cpu_us_per_row, ingest_ack_p99_ms on fleet-json",
	"wal.append_us_per_block":     "ingest_ack_p50_ms, cpu_us_per_row on ingest-frames",
	"wal.bytes_per_row":           "cpu_us_per_row on ingest-frames, fleet-json",
	"wal.fsyncs_per_s":            "ingest_ack_p99_ms on ingest-frames",
	"wal.fsync_ms.p99":            "ingest_ack_p99_ms on ingest-frames",
	"core.update_us_per_row":      "ingest_rows_per_s, cpu_us_per_row on ingest-frames, fleet-json",
	"core.query_ms.p50":           "query_p50_ms, query_p90_ms, ingest_ack_p99_ms on monitor",
	"core.query_ms.p99":           "query_p50_ms, query_p90_ms, ingest_ack_p99_ms on monitor",
	"core.blocks":                 "query_p50_ms on monitor",
	"core.rows_stored":            "sketch_rows, server_rss_mb on all",
	"stream.fd_shrinks_per_krow":  "ingest_rows_per_s (through core update time) on ingest-frames",
	"pca.compute_ms.p50":          "query_p50_ms on monitor",
	"hh.observe_ns_per_block":     "cpu_us_per_row on ingest-frames",
	"gen.lag_ms.p99":              "run validity on monitor, fleet-json",
	"trace.overhead_ratio":        "none",
}

func (r *result) setL(name string, v float64, unit string) {
	key := name
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		if fwIndex(name[i+1:]) != 0 {
			key = name[:i]
		}
	}
	r.metrics[name] = metric{Value: v, Unit: unit, Maps: layerMap[key]}
}

// layerMetrics derives the per-layer metrics from the traced replay.
func (r *result) layerMetrics(tr, plain *replayResult, cpuPerRow float64) {
	ss := tr.spans
	us := func(ns float64) float64 { return ns / 1e3 }
	msf := func(ns float64) float64 { return ns / 1e6 }
	r.setL("binenc.decode_us_per_block", us(ss.byName[spDecode].mean()), "us")
	r.setL("serve.encode_us_per_query", us(ss.encodeQ.mean()), "us")
	r.setL("registry.acquire_us.p50", us(ss.byName[spAcquire].quantile(0.5)), "us")
	r.setL("registry.acquire_us.p99", us(ss.byName[spAcquire].quantile(0.99)), "us")
	r.setL("registry.restore_ms.p50", msf(ss.restores.quantile(0.5)), "ms")
	r.setL("wal.append_us_per_block", us(ss.walRows.mean()), "us")
	r.setL("pca.compute_ms.p50", msf(ss.byName[spPCA].quantile(0.5)), "ms")
	r.setL("hh.observe_ns_per_block", ss.byName[spHH].mean(), "ns")
	busy := 0.0
	for layer, ns := range ss.layerBusy {
		if layer != "serve" {
			busy += ns
		}
	}
	r.setL("serve.residual_us_per_row", cpuPerRow-us(busy)/float64(max(tr.rows, 1)), "us")
	r.setL("trace.overhead_ratio", tr.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	for _, fw := range fwNames[1:] {
		i := fwIndex(fw)
		upd := ss.byNameFW[[2]uint8{spUpdate, i}]
		perRow := 0.0
		if upd != nil && upd.rows > 0 {
			perRow = us(upd.sum()) / float64(upd.rows)
		}
		r.setL("core.update_us_per_row."+fw, perRow, "us")
		q := ss.byNameFW[[2]uint8{spQueryCore, i}]
		r.setL("core.query_ms.p50."+fw, msf(q.quantile(0.5)), "ms")
		r.setL("core.query_ms.p99."+fw, msf(q.quantile(0.99)), "ms")
		a := tr.fw[fw]
		if a == nil {
			a = &fwAgg{}
		}
		per := func(v float64) float64 { return v / float64(max(a.tenants, 1)) }
		r.setL("core.blocks."+fw, per(a.blocks), "count")
		r.setL("core.rows_stored."+fw, per(a.rowsStored), "rows")
		r.setL("stream.fd_shrinks_per_krow."+fw, 1000*a.shrinks/max(a.windowRows, 1), "1/krow")
	}
}

// print writes the human report, then the result line.
func (r *result) print(traced bool) {
	hb, _ := json.Marshal(r.host)
	fmt.Printf("perfbench %s seed=%d trace=%v\nhost %s\n", r.workload, r.seed, traced, hb)
	printMetrics(r.metrics, "")
	printMetrics(r.unresolved, "   (unresolved: moves with host CPU steal; not gated)")
	if len(r.unresolved) > 0 {
		ub, _ := json.Marshal(r.unresolved)
		fmt.Printf("unresolved %s\n", ub)
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for _, p := range r.problems {
		fmt.Println("  FAIL:", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, r.metrics}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func printMetrics(ms map[string]metric, suffix string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("  %-36s %14.6g %s", n, m.Value, m.Unit)
		if m.Maps != "" {
			line += "   -> " + m.Maps
		}
		fmt.Println(line + suffix)
	}
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

func sum(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}
