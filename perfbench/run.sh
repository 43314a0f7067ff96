#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the
# repository root:
#
#   bash perfbench/run.sh --workload arch-warm --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary files and the benchmark's
# scratch files all stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config"
export HOME="$out/home"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
