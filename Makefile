# Development entry points. Everything is plain `go` underneath; the
# targets just encode the parameters used for the shipped artifacts.

GO ?= go

.PHONY: all build test race cover bench bench-fd bench-dsfd bench-load bench-hh conformance fuzz verify results examples clean check doclint linkcheck docs

all: build test

# Pre-merge gate: compile + vet (including the separate perfbench
# module, which ./... does not reach), the full test suite, and the suite
# again under the race detector (the concurrent wrappers and the
# parallel compute kernels are only honest under -race).
check: build test race doclint linkcheck

build:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper table/figure plus the substrate
# ablations; writes the artifact shipped as bench_output.txt.
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# FastFD ingest artifact: sweeps (buffer, alpha) at ℓ∈{64,256}, gates
# the default config (b=2, α=1) at 1.2× the committed baseline, then
# refreshes BENCH_fd.json in place.
bench-fd:
	$(GO) run ./cmd/swbench -fd-baseline BENCH_fd.json -fd-out BENCH_fd.json fd

# DS-FD head-to-head artifact: DS-FD vs LM-FD vs DI-FD at matched ε on
# the fig6 skewed PAMAP workload; fails if DS-FD breaches its N·R/ℓ
# guarantee or needs more space than LM-FD. Refreshes BENCH_dsfd.json.
bench-dsfd:
	$(GO) run ./cmd/swbench -dsfd-out BENCH_dsfd.json dsfd

# Ingest-plane load artifact: the three wire generations against a
# Zipf-skewed tenant fleet, soft-gated against the committed baseline,
# refreshing BENCH_load.json in place.
bench-load:
	$(GO) run ./cmd/swbench -load-baseline BENCH_load.json -load-out BENCH_load.json load

# Hot-key observability artifact: the sliding count-min top-K sidecar
# judged against exact per-tenant counts from a Zipf load run (recall
# and ε·N bound are hard gates), plus its ingest-path cost.
# Refreshes BENCH_hh.json.
bench-hh:
	$(GO) run ./cmd/swbench -hh-out BENCH_hh.json hh

# Cross-framework conformance suite under the race detector: every
# registered framework through the shared contract table.
conformance:
	$(GO) test -race -run 'TestContract|TestRegistryCoverage' ./internal/core ./internal/conformance

# Short fuzzing pass over the stateful structures, the decoders of
# untrusted bytes (stream frames, WAL records, FD, DS-FD and sampler
# snapshots), and the row-form QR and eigensolver against their
# bit-exact oracles.
fuzz:
	$(GO) test -fuzz FuzzEstimate -fuzztime 30s ./internal/eh
	$(GO) test -fuzz FuzzLMFD -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzSWOR -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzDSFDUnmarshal -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzSamplerUnmarshal -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime 30s ./internal/obs/hh
	$(GO) test -fuzz FuzzDecodeFrame -fuzztime 30s ./internal/serve
	$(GO) test -fuzz FuzzWALRecord -fuzztime 30s ./internal/wal
	$(GO) test -fuzz FuzzFDUnmarshal -fuzztime 30s ./internal/stream
	$(GO) test -fuzz FuzzQR -fuzztime 30s ./internal/mat
	$(GO) test -fuzz FuzzEigenSym -fuzztime 30s ./internal/mat

# CI gate: re-runs the paper's qualitative shape checks; non-zero exit
# on any DIFF.
verify:
	$(GO) run ./cmd/swbench verify

# Regenerates every table and figure into results_*.txt.
results:
	$(GO) run ./cmd/swbench all > results_all.txt
	$(GO) run ./cmd/swbench ablation > results_ablation.txt
	$(GO) run ./cmd/swbench drift > results_drift.txt
	$(GO) run ./cmd/swbench projerr > results_projerr.txt
	$(GO) run ./cmd/swbench winsweep > results_winsweep.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pca_anomaly
	$(GO) run ./examples/textstream
	$(GO) run ./examples/activity
	$(GO) run ./examples/checkpoint
	$(GO) run ./examples/distributed
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/fastfd
	$(GO) run ./examples/walrecovery

# Documentation gates (both run in CI). doclint fails on undocumented
# exported identifiers anywhere in the module; linkcheck fails on
# broken local links/anchors in the tracked markdown.
doclint:
	$(GO) run ./cmd/doclint ./...

linkcheck:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md ALGORITHMS.md EXPERIMENTS.md docs/API.md docs/QUERIES.md

docs: doclint linkcheck

clean:
	$(GO) clean ./...
