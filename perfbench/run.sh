#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload scenario-replay --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
  GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
