#!/usr/bin/env bash
# Builds the control-plane benchmark from source and runs it. Run from the
# repository root, e.g.:
#
#   bash ctlbench/run.sh --workload enterprise --seed 1 --seconds 38 --trace 0
#
# The build cache, the Go tool's own config and telemetry files and the
# binary live in .bench_build/ under the current directory, so the
# benchmark writes nothing outside its checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$(dirname "$0")" && go build -o "$out/ctlbench" .)
exec "$out/ctlbench" "$@"
