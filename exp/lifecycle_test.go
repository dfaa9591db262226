package exp

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsim"
	"ccsim/internal/store"
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
// and checks the per-phase totals: every executed run contributes one
// queue_wait and one simulate sample, and the engine queue-internals
// aggregate sums the per-run snapshots.
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
		// Every sample spans at least one tick of the clock.
		if least := (runs * time.Millisecond).Seconds(); d.SumSeconds < least {
			t.Errorf("%s total = %gs under the ticking clock, want at least %gs", phase, d.SumSeconds, least)
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

// TestRunID pins the identifier's shape and its independence from side
// channels: workload/protocol/8-hex-digit fingerprint prefix, identical
// whether or not the config carries a checker or trace writer.
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

// TestSchedulerStoreHitSkipsRunBookkeeping pins what a store hit leaves
// out: it simulates nothing, adds no simulate sample and feeds nothing into
// the engine aggregate, yet completes like a run and writes its metrics
// file.
func TestSchedulerStoreHitSkipsRunBookkeeping(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	countingRun(t, &calls)
	warm := NewScheduler(1, "")
	warm.UseStore(openStore(t, dir), false)
	if _, err := warm.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	s := NewScheduler(1, t.TempDir())
	s.UseStore(openStore(t, dir), true)
	if _, err := s.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("store hit simulated (%d calls)", calls.Load())
	}
	st := s.Stats()
	if st.Engine != nil {
		t.Errorf("store hit merged engine stats: %+v", st.Engine)
	}
	if st.Completed != 1 || st.Failed != 0 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats = %+v, want one completion and an idle scheduler", st)
	}
	want := map[string]uint64{"queue_wait": 1, "simulate": 0}
	for _, d := range st.Lifecycle {
		if d.Count != want[d.Phase] {
			t.Errorf("%s count = %d, want %d", d.Phase, d.Count, want[d.Phase])
		}
	}
}

// TestSchedulerStoreWarningsLogRunID checks the logging contract: both
// store warnings, a quarantined corrupt entry and a dropped undecodable
// one, are records tagged with the run's run_id.
func TestSchedulerStoreWarningsLogRunID(t *testing.T) {
	var calls atomic.Int64
	countingRun(t, &calls)
	cfg := cfgN(0)
	want := "run_id=" + RunID(cfg)
	logged := func(st *store.Store) string {
		var buf bytes.Buffer
		s := NewScheduler(1, "")
		s.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
		s.UseStore(st, true)
		if _, err := s.Submit(cfg).Wait(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	check := func(log, msg string) {
		t.Helper()
		for _, line := range strings.Split(log, "\n") {
			if strings.Contains(line, msg) {
				if !strings.Contains(line, want) {
					t.Errorf("%q record missing %s:\n%s", msg, want, line)
				}
				return
			}
		}
		t.Errorf("no %q record:\n%s", msg, log)
	}

	// A truncated entry: the kill -9 shape.
	dir := t.TempDir()
	logged(openStore(t, dir))
	ents, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("entries = %v, %v", ents, err)
	}
	if err := os.Truncate(ents[0], 10); err != nil {
		t.Fatal(err)
	}
	check(logged(openStore(t, dir)), "corrupt store entry quarantined")

	// An entry that verifies but is not Result JSON.
	st := openStore(t, t.TempDir())
	key, _ := Fingerprint(cfg)
	if err := st.Put(key, []byte("certainly not json")); err != nil {
		t.Fatal(err)
	}
	check(logged(st), "undecodable store entry dropped")
}
