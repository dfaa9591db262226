package exp

import (
	"bytes"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ccsim"
)

// tickClock is a deterministic clock: every read advances it by step, so
// any phase measured between two reads reports exactly one step.
type tickClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// TestSchedulerLifecycleStats runs a stubbed sweep under an injected clock
// and checks the per-phase histograms: every executed run contributes one
// queue_wait and one simulate sample, store_put stays empty without a
// store, and the engine queue-internals aggregate sums the per-run
// snapshots.
func TestSchedulerLifecycleStats(t *testing.T) {
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		r := &ccsim.Result{Workload: cfg.Workload, Protocol: cfg.ProtocolName(), ExecTime: 1}
		r.Queue.Dispatched = 100
		r.Queue.WheelScheduled = 90
		r.Queue.Migrations = 10
		r.Queue.Cohorts = 40
		r.Queue.WheelHighWater = 7
		r.Queue.CohortSizeLog2[1] = 40
		return r, nil
	})
	s := NewScheduler(2, "")
	clk := &tickClock{now: time.Unix(0, 0), step: time.Millisecond}
	s.SetClock(clk.Now)

	const runs = 3
	var ps []*Pending
	for i := 0; i < runs; i++ {
		cfg := tiny().config("mp3d")
		cfg.Procs = 4 + i // distinct fingerprints: no dedup
		ps = append(ps, s.Submit(cfg))
	}
	for _, p := range ps {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if len(st.Lifecycle) != numPhases {
		t.Fatalf("Lifecycle has %d phases, want %d", len(st.Lifecycle), numPhases)
	}
	byPhase := map[string]DurationStats{}
	for _, d := range st.Lifecycle {
		byPhase[d.Phase] = d
	}
	for _, phase := range []string{"queue_wait", "simulate"} {
		d := byPhase[phase]
		if d.Count != runs {
			t.Errorf("%s count = %d, want %d", phase, d.Count, runs)
		}
		if d.MaxSeconds <= 0 || d.SumSeconds <= 0 {
			t.Errorf("%s has zero durations under the ticking clock: %+v", phase, d)
		}
	}
	for _, phase := range []string{"retry_wait", "store_put", "metrics_write"} {
		if d := byPhase[phase]; d.Count != 0 {
			t.Errorf("%s count = %d, want 0 (no retries, store or metrics dir)", phase, d.Count)
		}
	}
	if st.Engine == nil {
		t.Fatal("Engine aggregate nil after completed runs")
	}
	if st.Engine.Dispatched != 100*runs || st.Engine.Migrations != 10*runs {
		t.Errorf("Engine aggregate = %+v, want %d dispatched / %d migrations",
			st.Engine, 100*runs, 10*runs)
	}
	if st.Engine.WheelHighWater != 7 {
		t.Errorf("Engine.WheelHighWater = %d, want 7 (max, not sum)", st.Engine.WheelHighWater)
	}
	if st.Engine.CohortSizeLog2[1] != 40*runs {
		t.Errorf("Engine histogram bucket 1 = %d, want %d", st.Engine.CohortSizeLog2[1], 40*runs)
	}
}

// TestRetryBackoffPhaseAccounting pins the retry-phase bugfix with the
// injected clock: a run that fails transiently twice before succeeding
// must contribute one simulate sample PER ATTEMPT — each of exactly one
// clock step, proving backoff sleep is not folded in — and one retry_wait
// sample per backoff sleep. Before the fix, exec timed the whole
// runWithRetry call as a single simulate sample, so the simulate histogram
// inflated with deliberate sleep time.
func TestRetryBackoffPhaseAccounting(t *testing.T) {
	calls := 0
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		calls++
		if calls <= 2 {
			return nil, &ccsim.SimFault{Kind: ccsim.FaultMaxEvents}
		}
		return &ccsim.Result{Workload: cfg.Workload, Protocol: cfg.ProtocolName(), ExecTime: 1}, nil
	})
	s := NewScheduler(1, "")
	clk := &tickClock{now: time.Unix(0, 0), step: time.Millisecond}
	s.SetClock(clk.Now)
	// A real (tiny) backoff: the tick clock advances one step per read, so
	// however long the sleep really lasts, each observed phase is exactly
	// one step and the assertion is deterministic.
	s.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})
	cfg := tiny().config("mp3d")
	cfg.Procs = 4
	if _, err := s.Submit(cfg).Wait(); err != nil {
		t.Fatal(err)
	}
	byPhase := map[string]DurationStats{}
	for _, d := range s.Stats().Lifecycle {
		byPhase[d.Phase] = d
	}
	step := time.Millisecond.Seconds()
	sim := byPhase["simulate"]
	if sim.Count != 3 {
		t.Fatalf("simulate count = %d, want 3 (one sample per attempt)", sim.Count)
	}
	if sim.MaxSeconds != step {
		t.Errorf("simulate max = %gs, want exactly one clock step (%gs): backoff leaked into the simulate phase",
			sim.MaxSeconds, step)
	}
	rw := byPhase["retry_wait"]
	if rw.Count != 2 {
		t.Fatalf("retry_wait count = %d, want 2 (one per backoff sleep)", rw.Count)
	}
	if rw.MaxSeconds != step || rw.SumSeconds != 2*step {
		t.Errorf("retry_wait = %+v, want two one-step samples", rw)
	}
}

// TestInterruptDuringRetryBackoffClassifiedCanceled pins the second retry
// bugfix: a run interrupted while sleeping between retry attempts must
// resolve as a canceled SimFault and count as interrupted — not surface
// the previous attempt's stale transient fault as if the run had
// legitimately failed with it.
func TestInterruptDuringRetryBackoffClassifiedCanceled(t *testing.T) {
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		return nil, &ccsim.SimFault{Kind: ccsim.FaultDeadline}
	})
	s := NewScheduler(1, "")
	// A backoff far longer than the test: the run parks in the retry sleep
	// until Interrupt fires.
	s.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Hour})
	cfg := tiny().config("mp3d")
	cfg.Procs = 4
	p := s.Submit(cfg)
	// Wait until the first attempt failed and the run entered backoff.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never reached its first retry")
		}
		time.Sleep(time.Millisecond)
	}
	s.Interrupt()
	_, err := p.Wait()
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultCanceled {
		t.Fatalf("err = %v, want a canceled SimFault, not the stale transient fault", err)
	}
	if !strings.Contains(f.Message, ccsim.FaultDeadline) {
		t.Errorf("canceled fault does not name the last transient fault: %q", f.Message)
	}
	st := s.Stats()
	if st.Interrupted != 1 {
		t.Errorf("Interrupted = %d, want 1 (mid-retry cancellation counts)", st.Interrupted)
	}
	failed := s.Failed()
	if len(failed) != 1 {
		t.Fatalf("ledger = %+v, want the one canceled run", failed)
	}
	if lf, ok := ccsim.AsFault(failed[0].Err); !ok || lf.Kind != ccsim.FaultCanceled {
		t.Errorf("ledger entry = %v, want kind canceled", failed[0].Err)
	}
}

// TestRunID pins the identifier's shape and its independence from side
// channels: workload/protocol/8-hex-digit fingerprint prefix, identical
// whether or not the config carries a probe or checker.
func TestRunID(t *testing.T) {
	cfg := tiny().config("mp3d")
	cfg.Procs = 4
	id := RunID(cfg)
	if !regexp.MustCompile(`^mp3d/[A-Z+]+(-SC)?/[0-9a-f]{8}$`).MatchString(id) {
		t.Fatalf("RunID = %q, want workload/PROTOCOL/8-hex", id)
	}
	for _, sc := range sideChannels {
		with := cfg
		sc.attach(&with)
		if got := RunID(with); got != id {
			t.Errorf("RunID changed with %s attached: %q vs %q", sc.name, got, id)
		}
	}
	other := cfg
	other.Procs = 8
	if got := RunID(other); got == id {
		t.Errorf("RunID identical for distinct configurations: %q", got)
	}
}

// TestSchedulerRetryLogsRunID checks the satellite's logging contract: a
// retried run emits a warn record carrying the run_id field.
func TestSchedulerRetryLogsRunID(t *testing.T) {
	calls := 0
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		calls++
		if calls == 1 {
			return nil, &ccsim.SimFault{Kind: ccsim.FaultMaxEvents}
		}
		return &ccsim.Result{Workload: cfg.Workload, Protocol: cfg.ProtocolName()}, nil
	})
	var buf bytes.Buffer
	s := NewScheduler(1, "")
	s.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	s.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})
	cfg := tiny().config("mp3d")
	cfg.Procs = 4
	if _, err := s.Submit(cfg).Wait(); err != nil {
		t.Fatal(err)
	}
	want := RunID(cfg)
	log := buf.String()
	if !strings.Contains(log, "run_id="+want) {
		t.Fatalf("retry log missing run_id=%s:\n%s", want, log)
	}
	if !strings.Contains(log, "retrying run") {
		t.Fatalf("retry log missing message:\n%s", log)
	}
}
