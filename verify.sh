#!/bin/sh
# Tier-1 verification: everything must build, vet clean, and pass the full
# test suite; the event engine, telemetry collector, ops plane, coherence
# checker, litmus harness, and the parallel experiment scheduler
# additionally run under the race detector (the scheduler fans ccsim.Run
# calls across goroutines and the ops server scrapes them live, so exp and
# ops are the race-sensitive surface; checked runs ride those same
# goroutines). CI and `make verify` both run this.
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
go test -race -short ccsim/internal/sim ccsim/internal/telemetry ccsim/internal/fault ccsim/internal/ops ccsim/internal/check ccsim/internal/litmus ccsim/internal/store ccsim/exp

# Queue-focused race pass, named directly in CI logs: TestEngine* plus the
# differential event-order tests cover every calendar-queue path (wheel
# scheduling, overflow migration, cohort dispatch, watchdog batching).
go test -race -count=1 -run 'TestEngine|TestEventOrder' ccsim/internal/sim

# Ops-handler race pass, named directly in CI logs: live scrapes against a
# running scheduler plus the dashboard and gated pprof endpoints.
go test -race -count=1 -run 'TestScrapeDuringSweep|TestDashboardServes|TestPprofGating' ccsim/internal/ops

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

# Side-channel smoke: sharing-pattern analytics and the protocol trace are
# pure side channels too — a run with both attached (and the checker, the
# heaviest combination) must pass and leave stdout byte-identical to a
# plain run, with the report and the trace landing in their side files.
# (-timeline is left out: the telemetry sampler's tick events move the
# "event queue" line's counts.) The disabled path must stay free: the
# no-allocs tests pin the nil-hook cost to zero, the processor's
# operations to zero allocations, and a whole run under its allocation
# ceiling. The address-shift test pins the sparse per-block tables: a run
# with every address moved above 2^40 or 2^58 bytes must match the
# unshifted run exactly.
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -check \
    -sharing /tmp/ccsim-sharing.txt -trace /tmp/ccsim-trace.txt \
    > /tmp/ccsim-analytics.txt
cmp /tmp/ccsim-analytics.txt /tmp/ccsim-unchecked.txt
test -s /tmp/ccsim-sharing.txt
test -s /tmp/ccsim-trace.txt
go test -count=1 -run 'TestAnalyticsDisabledAddsNoAllocs|TestRunAllocationCeiling|TestAddressShiftInvariance' ccsim
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

# Crash-resume smoke: a sweep with -cache-dir killed mid-flight must
# resume by re-running the same command, producing stdout byte-identical
# to an uninterrupted, uncached sweep; a corrupted store entry must be
# quarantined and re-executed, never crash the resume.
rm -rf /tmp/ccsim-store
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q > /tmp/ccsim-resume-ref.txt
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q \
    -cache-dir /tmp/ccsim-store > /dev/null 2>&1 &
SWEEP_PID=$!
sleep 1
kill -9 "$SWEEP_PID" 2> /dev/null || true
wait "$SWEEP_PID" 2> /dev/null || true
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q \
    -cache-dir /tmp/ccsim-store > /tmp/ccsim-resume-out.txt
cmp /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out.txt
# The resume committed an entry for every unique run; truncate one (the
# kill -9 shape) and resume again: quarantined, re-run, still identical.
for f in /tmp/ccsim-store/*.res; do
    truncate -s 10 "$f"
    break
done
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q \
    -cache-dir /tmp/ccsim-store > /tmp/ccsim-resume-out2.txt
cmp /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out2.txt
ls /tmp/ccsim-store/quarantine/* > /dev/null
rm -rf /tmp/ccsim-store /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out.txt \
    /tmp/ccsim-resume-out2.txt

# Live ops-plane smoke: a sweep serving -listen -pprof must answer
# /dashboard and the gated /debug/pprof/ endpoints, and /metrics must carry
# the engine queue-internals and lifecycle-duration families once the first
# runs complete — scraped mid-sweep, while the scheduler is still working.
fetch() {
    if command -v curl > /dev/null 2>&1; then
        curl -sf "$1"
    else
        wget -qO- "$1"
    fi
}
# No -q: the listening address arrives as an Info-level stderr record.
# The whole evaluation at scale 0.5 keeps the sweep alive for about three
# seconds on a 2-core host (peak RSS about 60 MB) so the scrapes below
# genuinely land mid-sweep; table2 at scale 0.25 ends in under 0.1 s,
# often before the first poll has read the address.
/tmp/experiments-verify -exp all -scale 0.5 -procs 8 \
    -listen 127.0.0.1:0 -pprof > /dev/null 2> /tmp/ccsim-ops-log.txt &
OPS_PID=$!
ADDR=""
i=0
while [ "$i" -lt 100 ]; do
    ADDR=$(sed -n 's/.*ops server listening.*addr=\([0-9.]*:[0-9]*\).*/\1/p' /tmp/ccsim-ops-log.txt | head -1)
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
test -n "$ADDR"
fetch "http://$ADDR/dashboard" | grep -q "ccsim sweep dashboard"
fetch "http://$ADDR/debug/pprof/heap?debug=1" > /dev/null
fetch "http://$ADDR/debug/pprof/cmdline" > /dev/null
# Poll /metrics until the engine and duration families appear (they need
# one completed run), keeping the last successful scrape so a sweep that
# drains between polls can't empty the assertion input.
MID=""
i=0
while [ "$i" -lt 300 ] && kill -0 "$OPS_PID" 2> /dev/null; do
    CUR=$(fetch "http://$ADDR/metrics" || true)
    [ -n "$CUR" ] && MID=$CUR
    if printf '%s' "$MID" | grep -q ccsim_engine_events_dispatched_total &&
        printf '%s' "$MID" | grep -q ccsim_sched_duration_seconds_count; then
        break
    fi
    i=$((i + 1))
    sleep 0.1
done
printf '%s' "$MID" | grep -q ccsim_engine_events_dispatched_total
printf '%s' "$MID" | grep -q ccsim_sched_duration_seconds_count
printf '%s' "$MID" | grep -q ccsim_engine_cohort_size_events_bucket
wait "$OPS_PID"
rm -f /tmp/ccsim-ops-log.txt

rm -f /tmp/metricsdiff-verify /tmp/experiments-verify
