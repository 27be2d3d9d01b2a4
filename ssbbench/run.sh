#!/usr/bin/env bash
# Builds the SSB benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash ssbbench/run.sh --workload ssb-compressed --seed 42 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build
# (or $CARGO_TARGET_DIR) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOENV=off
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C ssbbench build -o "$out/ssbbench" .
exec "$out/ssbbench" --out "$out" "$@"
