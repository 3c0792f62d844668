#!/usr/bin/env bash
# Builds the benchmark harness from the source in this checkout and runs
# it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload fleet_scale --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/perfbench"
build=$(cd "$build" && pwd)
export GOCACHE="$build/perfbench/gocache"
export GOPATH="$build/perfbench/gopath"
export XDG_CONFIG_HOME="$build/perfbench/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$build/perfbench/perfbench" . >&2
exec "$build/perfbench/perfbench" "$@"
