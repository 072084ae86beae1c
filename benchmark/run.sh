#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# directory (the root of a checkout) and runs it there with the given
# arguments. Everything the build writes — the Go build cache included —
# stays inside the checkout; nothing is downloaded.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "$0")" && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/facade-benchmark" .)
exec "$build/facade-benchmark" "$@"
