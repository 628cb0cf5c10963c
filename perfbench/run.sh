#!/usr/bin/env bash
# Builds the benchmark program from the sources of this checkout and runs
# one workload:
#
#   bash perfbench/run.sh --workload stream-deep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products and span traces go under
# $CARGO_TARGET_DIR (default .bench_build); the Go build cache and the
# toolchain's user configuration (its local telemetry counters) are kept
# there too, so nothing is written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" --out "$build" "$@"
