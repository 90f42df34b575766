#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload points-uniform --seed 1 --seconds 20 --trace 0
#
# The build and every Go cache it uses stay under .bench_build/ in the
# checkout. Without the repository's own sources next to perfbench/ the
# build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
