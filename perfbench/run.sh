#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, the binary, profiles and span dumps) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
[[ -f "$root/perfbench/go.mod" ]] || { echo "run.sh: run from the repository root" >&2; exit 2; }
build=${CARGO_TARGET_DIR:-.bench_build}
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/perfbench"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTELEMETRY=off

bin="$build/perfbench/perfbench"
if ! (cd "$root/perfbench" && go build -o "$bin" .) >&2; then
	echo "run.sh: building the benchmark failed" >&2
	exit 1
fi
exec "$bin" --out "$build/perfbench" "$@"
