#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload present --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The Go build cache and every
# other build output stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
