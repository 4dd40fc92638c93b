#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload meta-churn --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --compare <results-dir-a> <results-dir-b>
#
# The Go build cache, the binary and the result records all stay
# under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
