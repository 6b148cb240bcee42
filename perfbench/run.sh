#!/usr/bin/env bash
# Builds kradd and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments. Everything the build and the
# runs leave behind stays under .bench_build/ in the checkout root, which
# must be the working directory.
#
#   bash perfbench/run.sh --workload submit-default --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0

go build -o "$out/kradd" ./cmd/kradd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
