#!/usr/bin/env bash
# Differential check of two revisions: the same random ccsim configurations
# must give byte-identical results on both.
#
#   bash parentdiff.sh OLD [NEW]
#   SEED=7 bash parentdiff.sh HEAD~1
#
# OLD and NEW are git revisions; NEW defaults to the working tree. Each side
# is exported into a temporary directory, as bench/abtest.sh does, and
# cmd/ccsim is built there. A seeded generator (SEED, default 1) then draws
# 400 configurations over the workloads, the eight extension sets, RC and
# SC (never SC with CW), the uniform network and 16/32/64-bit meshes, 4-16
# processors, scales 0.02-0.1, SLC sizes and small write buffers. One third
# of them also run the live checker (-check), another third write a
# protocol trace (-trace FILE), and the last third write the sharing report
# and the telemetry timeline (-sharing FILE -timeline FILE). Each
# configuration runs on both sides with -json; the exit code, stdout and
# every side file must match byte for byte.
# The random scales stop at 0.1, so the script then exports every kernel's
# operation streams with ccsim -dump at 16 processors and scale 1.0 (the
# paper-size default), 4 at 0.13 and 32 at 0.02, and compares the files
# byte for byte. Last come fixed faulting runs: every kernel under BASIC
# and P+CW at 4 processors and scale 0.05, once with -max-events and once
# with -deadline far below what the run needs, and one -in run of a -dump
# file with -max-events, the RunStreams path. Three of them run again with
# -trace -, so stderr carries the protocol trace up to the fault before
# the dump. In text mode ccsim prints the whole fault dump on stderr,
# flight recorder included, and a watchdog dump carries no Go stack, so
# each side's exit code and stderr, slog's time= field stripped, must
# match byte for byte. The first difference prints its command line and
# exits 1; otherwise the script prints the counts and exits 0.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: bash parentdiff.sh OLD [NEW]" >&2
    exit 2
fi
count=400
seed=${SEED:-1}

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/ccsim-parentdiff.XXXXXX")
trap 'rm -rf "$work"' EXIT

# side NAME REV: export REV (or the working tree when REV is empty) and
# build its ccsim. A tracked file deleted from the working tree is still
# listed by git ls-files, so only paths that exist are copied.
side() {
    local dir="$work/$1"
    mkdir -p "$dir"
    if [ -n "$2" ]; then
        git -C "$repo" archive "$2" | tar -x -C "$dir"
    else
        (cd "$repo" && git ls-files -co --exclude-standard -z |
            while IFS= read -r -d '' f; do
                if [ -e "$f" ]; then printf '%s\0' "$f"; fi
            done | xargs -0 cp --parents -t "$dir")
    fi
    (cd "$dir" && go build -o "$work/$1.ccsim" ./cmd/ccsim)
    echo "$1: ${2:-working tree} built" >&2
}
side old "$1"
side new "${2:-}"
run=$work/run
mkdir "$run"

# rand N sets r to a pseudo-random integer in [0, N): a 64-bit LCG in shell
# arithmetic, so a SEED draws the same configurations on any bash.
state=$seed
rand() {
    state=$((state * 6364136223846793005 + 1442695040888963407))
    r=$((((state >> 33) & 0x7fffffff) % $1))
}
pick() {
    rand $#
    shift "$r"
    v=$1
}

ok=0
files=0
for i in $(seq 1 "$count"); do
    pick mp3d cholesky water lu ocean
    args=(-workload "$v")
    pick BASIC P M CW P+CW P+M CW+M P+CW+M
    args+=(-ext "$v")
    case $v in
    *CW*) ;;
    *)
        rand 3
        if [ "$r" -eq 0 ]; then args+=(-sc); fi
        ;;
    esac
    pick uniform 16 32 64
    if [ "$v" = uniform ]; then
        args+=(-net uniform)
    else
        args+=(-net mesh -link "$v")
    fi
    pick 4 8 16
    args+=(-procs "$v")
    rand 9
    args+=(-scale "0.$(printf %02d $((r + 2)))")
    pick 0 16 64 256 512
    args+=(-slc "$v")
    pick 0 1 2 4
    args+=(-flwb "$v")
    pick 0 1 2 4
    args+=(-slwb "$v")
    # A side file is named @.KIND here; each side runs with @ replaced
    # by its own name.
    case $((i % 3)) in
    1) args+=(-check) ;;
    2) args+=(-trace @.trace) ;;
    0) args+=(-sharing @.sharing -timeline @.timeline) ;;
    esac

    for s in old new; do
        (
            cd "$run"
            set +e
            "$work/$s.ccsim" "${args[@]/#@/$s}" -json > "$s.out" 2> /dev/null
            echo $? > "$s.code"
        ) &
    done
    wait
    for f in code out trace sharing timeline; do
        if [ -e "$run/old.$f" ] || [ -e "$run/new.$f" ]; then
            if ! cmp -s "$run/old.$f" "$run/new.$f"; then
                echo "parentdiff: configuration $i differs ($f): ccsim ${args[*]/#@/FILE} -json" >&2
                exit 1
            fi
            case $f in trace | sharing | timeline) files=$((files + 1)) ;; esac
        fi
    done
    if [ "$(cat "$run/new.code")" -eq 0 ]; then ok=$((ok + 1)); fi
    rm -f "$run"/*
done
echo "parentdiff: $count configurations identical, $ok of them ran to completion, $files side files compared (SEED=$seed)"

dumps=0
for size in "16 1.0" "4 0.13" "32 0.02"; do
    read -r procs scale <<< "$size"
    for k in mp3d cholesky water lu ocean; do
        args=(-workload "$k" -procs "$procs" -scale "$scale")
        for s in old new; do
            if ! "$work/$s.ccsim" "${args[@]}" -dump "$run/$s.dump" > /dev/null 2>&1; then
                echo "parentdiff: $s side failed: ccsim ${args[*]} -dump FILE" >&2
                exit 1
            fi
        done
        if ! cmp -s "$run/old.dump" "$run/new.dump"; then
            echo "parentdiff: dump differs: ccsim ${args[*]} -dump FILE" >&2
            exit 1
        fi
        dumps=$((dumps + 1))
        rm -f "$run"/*
    done
done
echo "parentdiff: $dumps kernel dumps identical"

# fault ARGS...: run ccsim ARGS in $run on both sides; it must fault, and
# both sides must exit alike and print the same stderr but for its times.
faults=0
fault() {
    for s in old new; do
        (
            cd "$run"
            set +e
            "$work/$s.ccsim" "$@" > /dev/null 2> "$s.stderr"
            echo $? > "$s.code"
        )
        sed 's/^time=[^ ]* //' "$run/$s.stderr" > "$run/$s.err"
    done
    if ! cmp -s "$run/old.code" "$run/new.code" || ! cmp -s "$run/old.err" "$run/new.err"; then
        echo "parentdiff: fault dump differs: ccsim $*" >&2
        exit 1
    fi
    if ! grep -q '^=== END FAULT ===$' "$run/new.err"; then
        echo "parentdiff: no fault dump: ccsim $*" >&2
        exit 1
    fi
    faults=$((faults + 1))
}
for k in mp3d cholesky water lu ocean; do
    for ext in BASIC P+CW; do
        fault -workload "$k" -ext "$ext" -procs 4 -scale 0.05 -max-events 300
        fault -workload "$k" -ext "$ext" -procs 4 -scale 0.05 -deadline 1000
    done
done
"$work/new.ccsim" -workload water -procs 4 -scale 0.05 -dump "$run/water.trace" > /dev/null
fault -in water.trace -max-events 2000
# A traced run's stderr is its trace, written up to the fault, then the
# dump; the dump's message tail comes from a replay that drops the trace.
fault -workload mp3d -ext P+CW -procs 4 -scale 0.05 -max-events 300 -trace -
fault -workload lu -ext BASIC -procs 4 -scale 0.05 -deadline 1000 -trace -
fault -in water.trace -max-events 2000 -trace -
echo "parentdiff: $faults fault dumps identical"
