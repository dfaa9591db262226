package exp

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsim"
	"ccsim/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// countingRun substitutes a deterministic fake simulation that counts its
// invocations — the instrument behind every resume assertion below.
func countingRun(t *testing.T, calls *atomic.Int64) {
	t.Helper()
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		calls.Add(1)
		return &ccsim.Result{Workload: cfg.Workload, Procs: cfg.Procs, ExecTime: 1000 + int64(cfg.Procs)}, nil
	})
}

// cfgN returns distinct cacheable configurations (varying MaxEvents keeps
// the workload identical but the fingerprints apart).
func cfgN(i int) ccsim.Config {
	c := tiny().config("mp3d")
	c.MaxEvents = uint64(1_000_000 + i)
	return c
}

// TestSchedulerStoreResume is the tentpole contract: a second sweep over a
// store populated by the first simulates nothing it already holds, and only
// the genuinely new configuration executes.
func TestSchedulerStoreResume(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	countingRun(t, &calls)

	s1 := NewScheduler(2, "")
	st1 := openStore(t, dir)
	s1.UseStore(st1, true)
	for i := 0; i < 3; i++ {
		if _, err := s1.Submit(cfgN(i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("first sweep simulated %d runs, want 3", calls.Load())
	}
	if st := st1.Stats(); st.Writes != 3 || st.Hits != 0 {
		t.Fatalf("first sweep store stats = %+v", st)
	}

	// "Resume": a fresh scheduler (fresh dedup cache) over the same store.
	calls.Store(0)
	s2 := NewScheduler(2, "")
	st2 := openStore(t, dir)
	s2.UseStore(st2, true)
	for i := 0; i < 4; i++ { // 3 old + 1 new
		r, err := s2.Submit(cfgN(i)).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil || r.ExecTime != 1000+int64(tiny().Procs) {
			t.Fatalf("run %d result = %+v", i, r)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("resumed sweep simulated %d runs, want only the new one", calls.Load())
	}
	if st := st2.Stats(); st.Hits != 3 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("resumed sweep store stats = %+v", st)
	}
	if s2.Stats().Completed != 4 {
		t.Fatalf("completed = %d, want 4 (hits count as completions)", s2.Stats().Completed)
	}
}

// TestSchedulerStoreHitWritesMetrics: the resume path must still produce
// the metrics files a fresh sweep would — byte-identical — or the golden
// gate breaks on resumed runs.
func TestSchedulerStoreHitWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	mdir1, mdir2 := t.TempDir(), t.TempDir()
	var calls atomic.Int64
	countingRun(t, &calls)

	s1 := NewScheduler(1, mdir1)
	s1.UseStore(openStore(t, dir), true)
	if _, err := s1.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	s2 := NewScheduler(1, mdir2)
	s2.UseStore(openStore(t, dir), true)
	if _, err := s2.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("second sweep re-simulated (%d calls)", calls.Load())
	}
	ents, err := os.ReadDir(mdir1)
	if err != nil || len(ents) != 1 {
		t.Fatalf("metrics dir 1: %v, %v", ents, err)
	}
	name := ents[0].Name()
	b1, err := os.ReadFile(filepath.Join(mdir1, name))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(mdir2, name))
	if err != nil {
		t.Fatalf("resumed sweep did not write %s: %v", name, err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("metrics from a store hit differ from the original:\n%s\nvs\n%s", b1, b2)
	}
}

// TestSchedulerStoreCorruptEntryReruns: damage an on-disk entry between
// sweeps; the resumed sweep must quarantine it and re-execute that run —
// never crash, never serve garbage.
func TestSchedulerStoreCorruptEntryReruns(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	countingRun(t, &calls)

	s1 := NewScheduler(1, "")
	s1.UseStore(openStore(t, dir), true)
	if _, err := s1.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("entries = %v, %v", ents, err)
	}
	// Truncate mid-payload — the kill -9 shape.
	b, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ents[0], b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	s2 := NewScheduler(1, "")
	st2 := openStore(t, dir)
	s2.UseStore(st2, true)
	r, err := s2.Submit(cfgN(0)).Wait()
	if err != nil || r == nil {
		t.Fatalf("resume over a corrupt entry: %v, %v", r, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("corrupt entry was not re-run (%d calls)", calls.Load())
	}
	if st := st2.Stats(); st.Quarantined != 1 || st.Hits != 0 || st.Writes != 1 {
		t.Fatalf("store stats = %+v, want quarantine + rewrite", st)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir = %v, %v", q, err)
	}
	// The healed entry serves the third sweep without simulating.
	calls.Store(0)
	s3 := NewScheduler(1, "")
	s3.UseStore(openStore(t, dir), true)
	if _, err := s3.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatal("healed entry did not serve as a hit")
	}
}

// TestSchedulerStoreUndeserializablePayloadDropped covers storeGet's second
// line of defence: an entry whose bytes checksum correctly but whose
// payload is not Result JSON must be dropped and re-run.
func TestSchedulerStoreUndeserializablePayloadDropped(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	key, ok := Fingerprint(cfgN(0))
	if !ok {
		t.Fatal("config not cacheable")
	}
	if err := st.Put(key, []byte("certainly not json")); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	countingRun(t, &calls)
	s := NewScheduler(1, "")
	s.UseStore(st, true)
	if _, err := s.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("bad payload was not re-run (%d calls)", calls.Load())
	}
	if ss := st.Stats(); ss.Quarantined != 1 {
		t.Fatalf("store stats = %+v, want the payload quarantined via Drop", ss)
	}
}

// TestSchedulerStoreNoReadBack: -resume=false semantics — existing entries
// are ignored on read but refreshed on write.
func TestSchedulerStoreNoReadBack(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	countingRun(t, &calls)

	s1 := NewScheduler(1, "")
	s1.UseStore(openStore(t, dir), true)
	if _, err := s1.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	s2 := NewScheduler(1, "")
	st2 := openStore(t, dir)
	s2.UseStore(st2, false)
	if _, err := s2.Submit(cfgN(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("readBack=false still served from disk (%d calls)", calls.Load())
	}
	if st := st2.Stats(); st.Hits != 0 || st.Writes != 1 {
		t.Fatalf("store stats = %+v, want no hits and one refresh write", st)
	}
}

// TestSchedulerInterruptAbandonsQueued: with one worker slot held by a
// blocking run, Interrupt must fail every queued run with ErrInterrupted —
// promptly, without waiting for the in-flight run — and count them.
func TestSchedulerInterruptAbandonsQueued(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		once.Do(func() { close(started) })
		<-release
		return &ccsim.Result{Workload: cfg.Workload, ExecTime: 1}, nil
	})
	s := NewScheduler(1, "")
	var pending []*Pending
	for i := 0; i < 3; i++ {
		pending = append(pending, s.Submit(cfgN(i)))
	}
	<-started // one run holds the slot; two are queued
	s.Interrupt()
	if !s.Interrupted() {
		t.Fatal("Interrupted() false after Interrupt")
	}
	// The two queued runs abandon without the slot ever freeing. Which of
	// the three holds the slot depends on goroutine scheduling, so poll the
	// counter rather than naming them.
	deadline := time.After(5 * time.Second)
	for s.Stats().Interrupted != 2 {
		select {
		case <-deadline:
			t.Fatalf("queued runs did not abandon after Interrupt: %+v", s.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	var interrupted, completed int
	for _, p := range pending {
		if _, err := p.Wait(); errors.Is(err, ErrInterrupted) {
			interrupted++
		} else if err == nil {
			completed++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if interrupted != 2 || completed != 1 {
		t.Fatalf("%d interrupted / %d completed, want 2 / 1", interrupted, completed)
	}
	st := s.Stats()
	if st.Interrupted != 2 || st.Failed != 2 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for _, f := range s.Failed() {
		if !errors.Is(f.Err, ErrInterrupted) {
			t.Fatalf("ledger entry %v, want ErrInterrupted", f.Err)
		}
	}
}

// TestSchedulerInterruptStartsNothingLater: once Interrupt has returned, no
// submission may start, even with every worker slot free. A select that
// chooses at random between a free slot and the closed stop channel would
// start about half of them.
func TestSchedulerInterruptStartsNothingLater(t *testing.T) {
	var calls atomic.Int64
	countingRun(t, &calls)
	s := NewScheduler(2, "")
	s.Interrupt()
	const n = 50
	var pending []*Pending
	for i := 0; i < n; i++ {
		pending = append(pending, s.Submit(cfgN(i)))
	}
	var abandoned int
	for _, p := range pending {
		if _, err := p.Wait(); errors.Is(err, ErrInterrupted) {
			abandoned++
		}
	}
	if c := calls.Load(); c != 0 || abandoned != n {
		t.Fatalf("after Interrupt: %d runs simulated and %d of %d abandoned, want 0 and %d", c, abandoned, n, n)
	}
	if st := s.Stats(); st.Interrupted != n {
		t.Fatalf("Stats().Interrupted = %d, want %d", st.Interrupted, n)
	}
}

// TestSchedulerInterruptCancelsInFlight drives a real simulation (no stub)
// and interrupts it mid-run: the shared cancel flag must abort it with a
// canceled SimFault rather than letting it run to completion.
func TestSchedulerInterruptCancelsInFlight(t *testing.T) {
	started := make(chan struct{})
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		close(started)
		return ccsim.Run(cfg)
	})
	s := NewScheduler(1, "")
	// A large config so the run is still in flight when the interrupt lands;
	// the watchdog polls the flag every batch, so the abort is prompt.
	o := Options{Scale: 1.0, Procs: 16}
	p := s.Submit(o.config("mp3d"))
	<-started
	s.Interrupt()
	_, err := p.Wait()
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultCanceled {
		t.Fatalf("interrupted in-flight run: err = %v, want a canceled SimFault", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("fault message %q", err)
	}
}
