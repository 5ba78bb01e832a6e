#!/usr/bin/env bash
# Builds the blbp benchmark program from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash blbpbench/run.sh --workload headline-cold --seed 1 --seconds 55 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the benchmark binary, the
# per-run scratch directories and the traced runs' span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d results || ! -f blbpbench/go.mod ]]; then
	echo "blbpbench: run from the repository root (go.mod, results/ and blbpbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build/blbpbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config/go/telemetry" "$out/gopath"
# The go command's telemetry lives under XDG_CONFIG_HOME; keep it off so
# no go invocation leaves a process behind.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C blbpbench build -o "$out/blbpbench" .
exec "$out/blbpbench" "$@"
