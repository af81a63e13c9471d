#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it:
#
#   bash perfbench/run.sh --workload dse-paper --seed 1 --seconds 10 --trace 0
#
# Every build artifact and cache lives under .bench_build/ in the
# checkout, and the module proxy is off: the build reads only the
# checkout and the Go toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
