#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through (see README.md):
#
#	bash perfbench/run.sh --workload ingest-json --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, durable-state and span files) lands
# under .bench_build/ in the checkout; nothing is fetched from a network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
