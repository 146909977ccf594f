#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one measurement:
#
#   bash perfbench/run.sh --workload ycsb-b --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the checkout root):
# the Go build cache, the binary, and the traced run's artifacts. Build
# output goes to stderr, so the last line of stdout is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/perfbench/home" "$build/perfbench/gocache" "$build/perfbench/gopath"

export HOME="$build/perfbench/home"
export XDG_CONFIG_HOME="$HOME/.config" XDG_CACHE_HOME="$HOME/.cache"
export GOCACHE="$build/perfbench/gocache" GOPATH="$build/perfbench/gopath"
export GOMODCACHE="$build/perfbench/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" --out "$build/perfbench/artifacts" "$@"
