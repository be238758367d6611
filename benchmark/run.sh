#!/usr/bin/env bash
# Builds the benchmark and gentriusd from this checkout, then runs one
# benchmark workload (or the steadiness mode) with the given arguments:
#
#   bash benchmark/run.sh --workload count-corpus --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh steady --runs 10
#
# Run it from the root of the checkout. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binaries, the daemons' data directories and the span files.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/home" "$out/tmp"

# Keep the Go toolchain's caches and temporary files inside the checkout.
export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local

# gentriusd is built as users build it: go build picks up the committed
# default.pgo profile (PGO on).
go build -o "$out/bin/gentriusd" ./cmd/gentriusd
(cd benchmark && go build -o "$out/bin/benchmark" .)

exec "$out/bin/benchmark" "$@" --gentriusd "$out/bin/gentriusd" --out "$out"
