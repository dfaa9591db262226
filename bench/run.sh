#!/usr/bin/env bash
# Builds the benchmark from the source tree around this script and runs it
# with the given flags, from the current directory. The Go build cache, the
# binary and every temporary file (the sweep's result stores included) stay
# under ./.bench_build, so a run touches nothing outside the directory it
# starts in.
#
#   bash bench/run.sh -workload rc-basic -seed 3 -seconds 20 -trace 0
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

if [ -e "$here/../.git" ]; then
    BENCH_COMMIT=$(git -C "$here/.." describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
    export BENCH_COMMIT
fi

(cd "$here" && go build -o "$out/ccsim-bench" .)
exec "$out/ccsim-bench" "$@"
