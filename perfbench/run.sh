#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, from the repository root:
#
#   sh perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build in the root.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
