package exp

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ccsim"
	"ccsim/internal/store"
)

// withRunSim swaps the scheduler's simulation entry point for the test's
// and restores it afterward.
func withRunSim(t *testing.T, fn func(ccsim.Config) (*ccsim.Result, error)) {
	t.Helper()
	orig := runSim
	runSim = fn
	t.Cleanup(func() { runSim = orig })
}

// TestSchedulerWorkerPanicUnblocksWaiters is the Pending.done leak
// regression test: a run that panics outside ccsim.Run's own recovery must
// still complete every Wait() — with an error — instead of deadlocking
// them.
func TestSchedulerWorkerPanicUnblocksWaiters(t *testing.T) {
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		panic("synthetic worker crash")
	})
	s := NewScheduler(2, "")
	p := s.Submit(tiny().config("mp3d"))
	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Wait()
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait() callers deadlocked after a worker panic")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "synthetic worker crash") {
			t.Errorf("waiter %d: err = %v, want the panic surfaced", i, err)
		}
	}
	failed := s.Failed()
	if len(failed) != 1 || !strings.Contains(failed[0].Err.Error(), "synthetic worker crash") {
		t.Errorf("fault ledger = %+v, want the one panicked run", failed)
	}
}

// TestSchedulerSimFaultInLedger checks contained simulation faults (not
// raw panics) land in the ledger and nil only their own cells. A faulted
// run executes exactly once: an injected panic and a watchdog abort are
// both final.
func TestSchedulerSimFaultInLedger(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		mu.Lock()
		calls[RunID(cfg)]++
		mu.Unlock()
		return ccsim.Run(cfg)
	})
	s := NewScheduler(4, "")
	bad := tiny().config("mp3d")
	bad.FaultInject = "mp3d/BASIC" // matches: this cell faults
	good := tiny().config("mp3d")
	good.Extensions = ccsim.Ext{P: true} // mp3d/P: untouched
	limited := good
	limited.MaxEvents = 2_000 // far too few: the watchdog aborts this cell
	pBad, pGood, pLimited := s.Submit(bad), s.Submit(good), s.Submit(limited)
	if r := pBad.Cell(); r != nil {
		t.Errorf("faulted run yielded a result: %+v", r)
	}
	if r := pGood.Cell(); r == nil {
		t.Error("clean run's cell is nil")
	}
	if r := pLimited.Cell(); r != nil {
		t.Errorf("aborted run yielded a result: %+v", r)
	}
	_, err := pBad.Wait()
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultPanic {
		t.Fatalf("faulted cell's error = %v, want a contained panic SimFault", err)
	}
	_, err = pLimited.Wait()
	if f, ok := ccsim.AsFault(err); !ok || f.Kind != ccsim.FaultMaxEvents {
		t.Fatalf("aborted cell's error = %v, want a max-events SimFault", err)
	}
	var injected, aborted int
	for _, fr := range s.Failed() {
		if fr.Cfg.FaultInject != "" {
			injected++
		}
		if fr.Cfg.MaxEvents == limited.MaxEvents {
			aborted++
		}
	}
	if len(s.Failed()) != 2 || injected != 1 || aborted != 1 {
		t.Errorf("fault ledger = %+v, want exactly the injected and the aborted run", s.Failed())
	}
	if st := s.Stats(); st.Completed != 1 || st.Failed != 2 {
		t.Errorf("stats = %+v, want 1 completed / 2 failed", st)
	}
	for _, cfg := range []ccsim.Config{bad, good, limited} {
		if n := calls[RunID(cfg)]; n != 1 {
			t.Errorf("%s executed %d times, want once", RunID(cfg), n)
		}
	}
}

// TestSchedulerMetricsFailureKeepsResult is the satellite-6 regression: a
// writeMetrics failure must surface as the run's error WITHOUT discarding
// the computed Result for in-process waiters.
func TestSchedulerMetricsFailureKeepsResult(t *testing.T) {
	// A regular file where the metrics directory should be makes MkdirAll
	// fail deterministically.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "metrics")
	if err := os.WriteFile(blocked, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(2, blocked)
	p := s.Submit(tiny().config("mp3d"))
	r, err := p.Wait()
	if err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("err = %v, want the metrics-write failure", err)
	}
	if r == nil {
		t.Fatal("metrics-write failure discarded the computed Result")
	}
	if r.ExecTime <= 0 {
		t.Fatalf("kept Result looks empty: %+v", r)
	}
	if p.Cell() == nil {
		t.Fatal("Cell() dropped a Result that survived its metrics failure")
	}
	if len(s.Failed()) != 1 {
		t.Fatalf("metrics failure missing from the fault ledger: %+v", s.Failed())
	}
}

// TestConcurrentSubmitInterruptAccounting races many concurrent Submit
// calls — duplicates for dedup traffic, a pre-warmed store for read-through
// hits — against an Interrupt landing while workers are mid-flight, and
// asserts the counter sum invariants hold once everything drains: every
// submission is a unique run or a dedup hit, every unique run resolves into
// exactly one of completed or failed, and the ledger matches the failed
// count. Run under -race (verify.sh's exp race pass), this is the
// scheduler's shutdown-accounting stress test.
func TestConcurrentSubmitInterruptAccounting(t *testing.T) {
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		time.Sleep(2 * time.Millisecond)
		return &ccsim.Result{Workload: cfg.Workload, Protocol: cfg.ProtocolName(), ExecTime: 1}, nil
	})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mkcfg := func(i int) ccsim.Config {
		cfg := tiny().config("mp3d")
		cfg.MaxEvents = uint64(1_000_000 + i) // distinct fingerprints per i
		return cfg
	}
	// Warm the store with the first 8 configurations so the racing sweep
	// below serves them as read-through hits.
	warm := NewScheduler(4, "")
	warm.UseStore(st, false)
	for i := 0; i < 8; i++ {
		if _, err := warm.Submit(mkcfg(i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}

	s := NewScheduler(2, "")
	s.UseStore(st, true)
	const (
		submitters   = 8
		perSubmitter = 24
		distinct     = 32 // i%distinct duplicates many submissions
	)
	var (
		mu   sync.Mutex
		pend []*Pending
		wg   sync.WaitGroup
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				p := s.Submit(mkcfg((g*perSubmitter + i) % distinct))
				mu.Lock()
				pend = append(pend, p)
				mu.Unlock()
			}
		}(g)
	}
	// Interrupt while submissions and simulations are both in flight —
	// but only after at least one store hit has landed, so the race always
	// covers the read-through path too.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st.Stats().Hits > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		s.Interrupt()
	}()
	wg.Wait()
	for _, p := range pend {
		p.Wait() //nolint:errcheck // the invariant below covers outcomes
	}

	stats := s.Stats()
	if want := uint64(submitters * perSubmitter); stats.Submitted != want {
		t.Errorf("Submitted = %d, want %d", stats.Submitted, want)
	}
	if stats.Unique+stats.DedupHits != stats.Submitted {
		t.Errorf("Unique(%d) + DedupHits(%d) != Submitted(%d)",
			stats.Unique, stats.DedupHits, stats.Submitted)
	}
	if stats.Completed+stats.Failed != stats.Unique {
		t.Errorf("Completed(%d) + Failed(%d) != Unique(%d): a run was lost or double-counted",
			stats.Completed, stats.Failed, stats.Unique)
	}
	if got := uint64(len(s.Failed())); got != stats.Failed {
		t.Errorf("ledger has %d entries, Failed counter says %d", got, stats.Failed)
	}
	if stats.Interrupted > stats.Failed {
		t.Errorf("Interrupted(%d) > Failed(%d)", stats.Interrupted, stats.Failed)
	}
	// Every ledger entry must be a shutdown casualty: this sweep's runs
	// cannot fail any other way.
	for _, f := range s.Failed() {
		if errors.Is(f.Err, ErrInterrupted) {
			continue
		}
		if sf, ok := ccsim.AsFault(f.Err); ok && sf.Kind == ccsim.FaultCanceled {
			continue
		}
		t.Errorf("unexpected non-shutdown failure in ledger: %v", f.Err)
	}
	if st.Stats().Hits == 0 {
		t.Error("store read-through hits never happened; the race never covered the hit path")
	}
}

// TestFailedLedgerConcurrentMixedFaults hammers the ledger from many
// concurrent workers with every failure shape at once — raw worker panics,
// contained SimFaults of several kinds, plain errors — interleaved with
// clean runs, and checks nothing is lost, double-counted or misfiled.
func TestFailedLedgerConcurrentMixedFaults(t *testing.T) {
	const n = 48 // 12 of each shape
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		switch cfg.MaxEvents % 4 {
		case 0:
			panic(fmt.Sprintf("raw crash %d", cfg.MaxEvents))
		case 1:
			return nil, &ccsim.SimFault{Kind: ccsim.FaultDeadlock, Message: "stuck"}
		case 2:
			return nil, errors.New("plain failure")
		default:
			return &ccsim.Result{Workload: cfg.Workload, ExecTime: 1}, nil
		}
	})
	s := NewScheduler(8, "")
	var pending []*Pending
	for i := 0; i < n; i++ {
		cfg := tiny().config("mp3d")
		cfg.MaxEvents = uint64(1_000_000 + i)
		pending = append(pending, s.Submit(cfg))
	}
	var wg sync.WaitGroup
	for _, p := range pending {
		wg.Add(1)
		go func(p *Pending) { defer wg.Done(); p.Wait() }(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("waiters deadlocked under concurrent mixed faults")
	}
	var panics, faults, plain int
	for _, f := range s.Failed() {
		msg := f.Err.Error()
		switch {
		case strings.Contains(msg, "raw crash"):
			panics++
		case strings.Contains(msg, "stuck"):
			faults++
		case strings.Contains(msg, "plain failure"):
			plain++
		default:
			t.Errorf("unrecognized ledger entry: %v", f.Err)
		}
	}
	if panics != 12 || faults != 12 || plain != 12 {
		t.Fatalf("ledger = %d panics / %d faults / %d plain, want 12 each", panics, faults, plain)
	}
	st := s.Stats()
	if st.Failed != 36 || st.Completed != 12 {
		t.Fatalf("stats = %+v, want 36 failed / 12 completed", st)
	}
	// Every cell resolved: failed ones nil, clean ones populated.
	for i, p := range pending {
		if r := p.Cell(); (i%4 == 3) != (r != nil) {
			t.Errorf("cell %d = %v", i, r)
		}
	}
}
