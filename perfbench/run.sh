#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# a checkout, for example:
#
#   bash perfbench/run.sh --workload atpg-retimed --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write, the Go build cache included,
# goes under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
