#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. Everything the Go toolchain writes (build cache, module
# cache, temporary files, the binary) goes under .bench_build/ in the
# checkout; nothing outside the checkout is read or written.
#
#   bash bench/run.sh --workload type_udp --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -list
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export CGO_ENABLED=0

# bench/ is a module of its own (module slim/bench, replace slim => ../),
# so the build fails — and this script exits non-zero without a result —
# when the rest of the repository is not there.
(cd "$here" && go build -o "$build/slim-bench" .)

cd "$root"
exec "$build/slim-bench" "$@"
