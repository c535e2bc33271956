#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload record --seed 1 --seconds 20 --trace 0
#
# The build is a normal one (never -race) with the program's default
# settings. The Go build cache, the binary and everything the benchmark
# writes stay under .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" XDG_CONFIG_HOME="$out/go/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
