#!/usr/bin/env bash
# Same-host A/B test of two commits with identical benchmark code.
#
#   bash bench/abtest.sh OLD [NEW]
#
# OLD and NEW are git revisions; NEW defaults to the working tree. Each side
# is exported into a temporary directory and the current bench/ is copied
# over it, so both sides build and run the same benchmark, reference
# included. It then runs ten pairs of three interleaved rounds each
# (-seconds 48, about 50 s a run), alternating which side goes first, with
# seed i for pair i, and prints a verdict per workload and end-to-end
# metric: improved, worse, unchanged or unresolved (see README.md,
# "Claiming a gain"). Three rounds give the sweep three passes; with one,
# its host-speed correction rests on a single probe.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: bash bench/abtest.sh OLD [NEW]" >&2
    exit 2
fi
pairs=10
seconds=48

here=$(cd "$(dirname "$0")" && pwd)
repo=$(git -C "$here" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/ccsim-abtest.XXXXXX")
trap 'rm -rf "$work"' EXIT

# side NAME REV: export REV (or the working tree when REV is empty), overlay
# the current bench/ and build the benchmark binary.
side() {
    local dir="$work/$1"
    mkdir -p "$dir"
    if [ -n "$2" ]; then
        git -C "$repo" archive "$2" | tar -x -C "$dir"
    else
        (cd "$repo" && git ls-files -co --exclude-standard -z | xargs -0 cp --parents -t "$dir")
    fi
    rm -rf "$dir/bench"
    mkdir "$dir/bench"
    (cd "$here" && git ls-files -co --exclude-standard -z . | xargs -0 cp --parents -t "$dir/bench")
    (cd "$dir/bench" && go build -o "$work/$1.bin" .)
    echo "$1: ${2:-working tree} built" >&2
}
side old "$1"
side new "${2:-}"

mkdir -p "$work/results"
for i in $(seq 1 "$pairs"); do
    order="old new"
    if [ $((i % 2)) -eq 0 ]; then order="new old"; fi
    for s in $order; do
        echo "pair $i/$pairs: $s" >&2
        (cd "$work/$s" && "$work/$s.bin" -seconds "$seconds" -trace 0 -seed "$i" \
            -json "$work/results/$s-$(printf %02d "$i").json" > /dev/null)
    done
done
"$work/new.bin" -verdict "$work/results"
