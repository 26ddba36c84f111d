#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Call it from
# the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 40 --trace 0
#
# The build cache, the binary and the stores' files all stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" . >&2
PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec "$build/perfbench" "$@"
