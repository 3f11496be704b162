#!/usr/bin/env bash
# The BENCHMARK.json command: build bgpbench from source and run it with the
# driver's arguments, from the root of a checkout. Everything the Go toolchain
# and the benchmark write — build cache, temporary files, the binary, the
# stores, bench-trace.json — stays under .bench_build in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C cmd/bgpbench -o "$build/bgpbench" .
exec "$build/bgpbench" "$@"
