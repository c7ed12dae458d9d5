#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the benchmark and the hermes-serve child from the sources of
# the checkout this script sits in, then runs the benchmark, whose last
# line of output is the JSON result. Everything the build and the run
# write stays under .bench_build in that checkout: Go's build cache and
# module paths are pointed there, and nothing is fetched. In a directory
# without the rest of the repository the build fails and so does this.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain's own files in the checkout too: build cache,
# module path, scratch space and the go command's per-user state.
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$root"
go build -C benchmark -o "$build/benchmark" .
go build -o "$build/hermes-serve" ./cmd/hermes-serve

exec "$build/benchmark" \
	-spec "$root/BENCHMARK.json" \
	-serve-bin "$build/hermes-serve" \
	-spans "$build/spans.json" \
	"$@"
