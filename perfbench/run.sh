#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload xml-select --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's span files all stay
# under .bench_build/ in the checkout. Nothing is downloaded: the benchmark
# module needs only the standard library and the repository's own module.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
