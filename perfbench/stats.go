package main

// Aggregation and order statistics.

import (
	"math"
	"sort"
	"strconv"
)

// runAgg merges the connections' bookkeeping.
type runAgg struct {
	attempted, failed, rows, wireBytes int
	acks, queries, lags                []float64
	failures                           []string
}

func aggregate(stats []*connStats) runAgg {
	var a runAgg
	for _, st := range stats {
		a.attempted += st.attempted
		a.failed += st.failed
		a.rows += st.rows
		a.wireBytes += st.wireBytes
		a.acks = append(a.acks, st.acks...)
		a.queries = append(a.queries, st.queries...)
		a.lags = append(a.lags, st.lags...)
		a.failures = append(a.failures, st.failures...)
	}
	return a
}

// touches counts the tenant acquisitions the completed operations
// cause on the server: one per ingest block, request, bulk item or
// query, two for a refused batch and its stats probe.
func touches(w *workload, opsDone []int) int {
	n := 0
	for c := 0; c < w.conns; c++ {
		g := newGen(w, c)
		g.prefill()
		for i := 0; i < opsDone[c]; i++ {
			o, ok := g.nextOp()
			if !ok {
				break
			}
			switch o.kind {
			case opLease, opBulk:
				n += len(o.batches)
			case opReject:
				n += 2
			case opChurn:
			default:
				n++
			}
		}
	}
	return n
}

// quantileSorted interpolates quantile q of sorted values.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(max(len(v), 1))
}

// tailPct names the highest of p99, p95, p90, p75, p50 that has at
// least ten samples beyond it.
func tailPct(n int) string {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return strconv.Itoa(p)
		}
	}
	return "none"
}
