#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with the
# given arguments (see main.go). Run from the root of the checkout:
#
#   bash perfbench/run.sh -workload oltp -seed 1 -seconds 20 -trace 0
#   bash perfbench/run.sh -quick
#
# Build outputs, the Go build cache, run records and the workloads' data
# directories all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a txkv checkout (go.mod and perfbench/go.mod)" >&2
	exit 2
fi
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
mkdir -p "$GOTMPDIR"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export CGO_ENABLED=0
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" "$@"
