#!/bin/sh
# Tier-1 verification: everything must build, vet clean, and pass the full
# test suite; the event engine, telemetry collector, coherence checker,
# litmus harness, result store, protocol tracer and the parallel experiment
# scheduler additionally run under the race detector (the scheduler fans
# ccsim.Run calls across goroutines and interrupts them from a signal
# handler, so exp is the race-sensitive surface; checked runs ride those
# same goroutines; the tracer renders on a goroutine of its own). CI and
# `make verify` both run this.
set -eux

go build ./...
go vet ./...

# Formatting gate: every tracked Go file must be gofmt-clean.
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting (run gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

go test ./...
go test -race -short ccsim/internal/sim ccsim/internal/telemetry ccsim/internal/fault ccsim/internal/check ccsim/internal/litmus ccsim/internal/store ccsim/internal/trace ccsim/exp

# Trace-renderer race pass, named directly in CI logs: traced runs that end
# cleanly, at a fault, through a slow writer and through a panicking one,
# each handing batches between the simulation goroutine and the renderer.
go test -race -count=1 -run 'Trace|Fault' ccsim

# Queue-focused race pass, named directly in CI logs: TestEngine* plus the
# differential event-order tests cover every calendar-queue path (wheel
# scheduling, overflow migration, cohort dispatch, watchdog batching).
go test -race -count=1 -run 'TestEngine|TestEventOrder' ccsim/internal/sim

# Watchdog smoke: a generous event ceiling must not disturb a clean run,
# and a far-too-tight one must abort with a structured fault (non-zero
# exit) instead of hanging or crashing.
go build -o /tmp/ccsim-verify ./cmd/ccsim
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -max-events 50000000 > /dev/null
if /tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -max-events 1000 > /dev/null 2>&1; then
    echo "watchdog smoke: tight -max-events ceiling did not abort" >&2
    exit 1
fi

# Live-checker smoke: a clean workload must pass with the transition-time
# coherence checker attached, and -check must leave stdout byte-identical
# to an unchecked run (the checker is a pure side channel).
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -check > /tmp/ccsim-checked.txt
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 > /tmp/ccsim-unchecked.txt
cmp /tmp/ccsim-checked.txt /tmp/ccsim-unchecked.txt

# Data-verification smoke on a finite SLC: a 16-block direct-mapped cache
# replaces lines (533 replacement misses under CW+M on a 16-bit mesh, 332
# under P+M with SC), so a victim's words must reach its writeback and a
# refill must start from memory's words. -verify must exit 0 and leave
# stdout byte-identical to the same run without it. ($args is left
# unquoted so it splits into its flags.)
for args in "-ext CW+M -net mesh -link 16" "-ext P+M -sc"; do
    /tmp/ccsim-verify -workload mp3d $args -slc 16 -procs 8 -scale 0.05 -verify > /tmp/ccsim-verified.txt
    /tmp/ccsim-verify -workload mp3d $args -slc 16 -procs 8 -scale 0.05 > /tmp/ccsim-unverified.txt
    cmp /tmp/ccsim-verified.txt /tmp/ccsim-unverified.txt
done
rm -f /tmp/ccsim-verified.txt /tmp/ccsim-unverified.txt

# Side-channel smoke: sharing-pattern analytics and the protocol trace are
# pure side channels too — a run with both attached (and the checker, the
# heaviest combination) must pass and leave stdout byte-identical to a
# plain run, with the report and the trace landing in their side files.
# (-timeline is left out: the telemetry sampler's tick events move the
# "event queue" line's counts.) The disabled path must stay free: the
# no-allocs tests pin the nil-hook cost to zero, the processor's
# operations to zero allocations, and a whole run under its allocation
# and heap-byte ceilings (the second holds workload streams to one loop
# iteration per processor). The observed-run ceiling does the same for a
# run with the checker, sharing analyzer, telemetry and trace attached
# (it fails if their per-block or per-span state goes back to maps and
# one heap object each). A traced run may allocate only a constant more
# than the same run untraced, so no trace line allocates. The
# address-shift test pins the sparse per-block tables, the side channels'
# included: a run with every address moved above 2^40 or 2^58 bytes must
# match the unshifted run exactly.
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -check \
    -sharing /tmp/ccsim-sharing.txt -trace /tmp/ccsim-trace.txt \
    > /tmp/ccsim-analytics.txt
cmp /tmp/ccsim-analytics.txt /tmp/ccsim-unchecked.txt
test -s /tmp/ccsim-sharing.txt
test -s /tmp/ccsim-trace.txt
go test -count=1 -run 'TestAnalyticsDisabledAddsNoAllocs|TestRunAllocationCeiling|TestObservedRunAllocationCeiling|TestTracingAddsConstantAllocs|TestRunHeapBytesCeiling|TestAddressShiftInvariance' ccsim
go test -count=1 -run 'TestProcessorZeroAllocs' ccsim/internal/proc
rm -f /tmp/ccsim-verify /tmp/ccsim-checked.txt /tmp/ccsim-unchecked.txt \
    /tmp/ccsim-analytics.txt /tmp/ccsim-sharing.txt /tmp/ccsim-trace.txt

# Bounded checked-random-walk litmus pass: seeded micro-programs across the
# protocol grid under the live checker (the corpus itself runs in
# `go test ./...` above; this repeats the randomized walk subset alone so a
# litmus regression is named directly in CI logs).
go test -count=1 -run 'TestRandomWalkChecked' ccsim/internal/litmus

# Benchmark correctness gate: bench/ is its own module, so the root
# `go test ./...` skips it. Its tests run every benchmark workload at -quick
# size and check every simulated statistic, and the sweep tables' hash,
# against the pinned reference — any speed-up that changes a simulated
# number fails here.
(cd bench && go test ./...)

# Tier-2 metrics regression gate: regenerate the golden grid (every run of
# the whole evaluation at a tiny fixed scale: all eight extension sets, RC
# and SC, uniform and 16/32/64-bit meshes, every sensitivity axis) and
# require every metric to match the committed baseline exactly — the
# simulator is deterministic, so any drift is a behavior change.
# `make golden` refreshes the baseline after an intentional one.
go build -o /tmp/metricsdiff-verify ./cmd/metricsdiff
go build -o /tmp/experiments-verify ./cmd/experiments
rm -rf /tmp/ccsim-metrics-check
/tmp/experiments-verify -exp all -scale 0.02 -procs 16 -q -metrics /tmp/ccsim-metrics-check > /dev/null
/tmp/metricsdiff-verify golden /tmp/ccsim-metrics-check

# Gate self-check: the baseline must pass against itself, and a perturbed
# copy must fail — proves the gate can actually catch a regression.
/tmp/metricsdiff-verify golden golden > /dev/null
rm -rf /tmp/ccsim-metrics-perturbed
cp -r golden /tmp/ccsim-metrics-perturbed
sed -i 's/"ExecTime": [0-9]*/"ExecTime": 1/' /tmp/ccsim-metrics-perturbed/mp3d_BASIC_p16_x0.02.json
if /tmp/metricsdiff-verify golden /tmp/ccsim-metrics-perturbed > /dev/null 2>&1; then
    echo "metricsdiff self-check: perturbed baseline was not rejected" >&2
    exit 1
fi
rm -rf /tmp/ccsim-metrics-check /tmp/ccsim-metrics-perturbed

# Crash-resume smokes: a sweep with -cache-dir stopped mid-flight, once by
# SIGKILL and once by SIGINT, must resume by re-running the same command
# and print stdout byte-identical to an uninterrupted, uncached sweep.
# table2 at scale 0.5 simulates 20 unique configurations in about 0.7 s on
# a 2-core host. The signal goes out once the first entry is committed, and
# the exit status proves it landed mid-flight: 137 for SIGKILL, 130 for
# SIGINT's graceful drain; fewer than all 20 entries must be on disk.
# A corrupted store entry must then be quarantined and re-executed, never
# crash the resume. ($SWEEP is left unquoted so it splits into its words.)
SWEEP="/tmp/experiments-verify -exp table2 -scale 0.5 -procs 8 -q"
$SWEEP > /tmp/ccsim-resume-ref.txt
for sig in KILL INT; do
    rm -rf /tmp/ccsim-store
    $SWEEP -cache-dir /tmp/ccsim-store > /dev/null 2>&1 &
    SWEEP_PID=$!
    i=0
    until ls /tmp/ccsim-store/*.res > /dev/null 2>&1; do
        i=$((i + 1))
        test "$i" -lt 1000
        sleep 0.01
    done
    kill -"$sig" "$SWEEP_PID"
    status=0
    wait "$SWEEP_PID" || status=$?
    if [ "$sig" = KILL ]; then want=137; else want=130; fi
    if [ "$status" -ne "$want" ]; then
        echo "crash-resume smoke: SIG$sig sweep exited $status, want $want" >&2
        exit 1
    fi
    test "$(ls /tmp/ccsim-store/*.res | wc -l)" -lt 20
    $SWEEP -cache-dir /tmp/ccsim-store > /tmp/ccsim-resume-out.txt
    cmp /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out.txt
done
# The resume committed an entry for every unique run; truncate one (the
# kill -9 shape) and resume again: quarantined, re-run, still identical.
for f in /tmp/ccsim-store/*.res; do
    truncate -s 10 "$f"
    break
done
$SWEEP -cache-dir /tmp/ccsim-store > /tmp/ccsim-resume-out2.txt
cmp /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out2.txt
ls /tmp/ccsim-store/quarantine/* > /dev/null
rm -rf /tmp/ccsim-store /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out.txt \
    /tmp/ccsim-resume-out2.txt

rm -f /tmp/metricsdiff-verify /tmp/experiments-verify
