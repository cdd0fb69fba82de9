#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# a checkout; build output stays in .bench_build there:
#
#	bash perfbench/run.sh --workload serve-uniform --seed 1 --seconds 20 --trace 0
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
