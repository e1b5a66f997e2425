#!/usr/bin/env bash
# Builds mvperf from source and runs it with the given arguments:
#
#   bash mvperf/run.sh --workload compile --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go caches, the binary and the
# traced run's spans all stay under .bench_build/ in that directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd mvperf && go build -o "$out/mvperf" .)
exec "$out/mvperf" "$@"
