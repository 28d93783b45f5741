#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload hit_small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# the binary, span dumps, determinism records) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out/perfbench" "$@"
