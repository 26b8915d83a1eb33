#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload table2-cell --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the build's temporary files and each
# run's scratch files (model, ledger, anchor) live in .bench_build/, or in
# $CARGO_TARGET_DIR when set; nothing is downloaded.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --scratch "$out" "$@"
