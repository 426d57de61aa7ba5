#!/usr/bin/env bash
# Builds the FIGRET benchmark from the source tree it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-wan --seed 1 --seconds 25 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/ in
# the current directory; nothing is downloaded.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
