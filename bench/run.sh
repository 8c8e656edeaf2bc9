#!/usr/bin/env bash
# Builds the ecochip end-to-end benchmark from source and runs it with
# the given arguments, from the root of the repository:
#
#   bash bench/run.sh --workload sweep-262k --seed 1 --seconds 25 --trace 0
#
# The binary, Go's build cache and its temporary files all live under
# .bench_build/ at the repository root, so a run reads and writes only
# inside the checkout (plus the Go toolchain itself).
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/ecobench" .
exec "$out/ecobench" "$@"
