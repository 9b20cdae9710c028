#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload node-steady --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the working directory. The build fails,
# and so the script exits non-zero without a result, when the
# repository's source is not next to the benchmark.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

bin="$out/perfbench"
(cd "$src" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
