#!/usr/bin/env bash
# Builds goalbench from this checkout and runs it from the repository
# root with the given arguments, e.g.
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload fleet --seed 3 --seconds 10 --trace 0
#
# The Go build cache, module cache, configuration (and so Go's telemetry
# counters) and temporary files live under .bench_build, so a run reads
# and writes only inside the checkout; GOPROXY=off keeps the build off the
# network. Without the repository around bench/ (the module goalbench
# measures) the build fails and the script exits nonzero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/goalbench/goalbench" ./goalbench
exec "$build/goalbench/goalbench" "$@"
