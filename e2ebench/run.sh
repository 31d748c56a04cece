#!/usr/bin/env bash
# Builds mfpd and the benchmark driver from the working tree, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload churn2d --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the two binaries,
# the per-run data directories (removed on exit) and the span files of
# traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

# Build output goes to stderr so the last line of stdout stays the result.
go build -o "$out/mfpd" ./cmd/mfpd 1>&2
(cd "$root/e2ebench" && go build -o "$out/e2ebench" . 1>&2)

exec "$out/e2ebench" -mfpd "$out/mfpd" -out "$out" "$@"
