#!/usr/bin/env bash
# Builds swserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments (see README.md). Every build and
# run artifact stays under .bench_build in the checkout root.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
go build -o "$build/bin/swserve" ./cmd/swserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -server-bin .bench_build/bin/swserve -work-dir .bench_build "$@"
