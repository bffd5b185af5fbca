#!/usr/bin/env bash
# Builds mamdr-bench from the sources of this checkout and runs it with
# the given arguments. Everything the build and the run write stays under
# .bench_build/ in the checkout: the binary, the Go build cache and
# temporary files, and the run's scratch directory.
set -euo pipefail
cd "$(dirname "$0")/../.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/mamdr-bench" ./cmd/mamdr-bench
exec "$out/mamdr-bench" "$@"
