#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache and GOPATH
# included, so nothing is read from or written to the home directory) and
# runs it with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/remac-benchmark" .
exec "$out/remac-benchmark" "$@"
