#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# traced run's spans go under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
