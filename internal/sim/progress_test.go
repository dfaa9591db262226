package sim

import (
	"sync"
	"testing"
	"time"
)

// TestProgressPublishes checks the probe tracks a watched run: position
// advances, the start stamp is set once, and the final snapshot matches
// the engine's resting state exactly.
func TestProgressPublishes(t *testing.T) {
	e := NewEngine()
	p := &Progress{Label: "test/BASIC"}
	e.SetProgress(p)

	const n = 3 * progressStride
	var tick func(any)
	i := 0
	tick = func(any) {
		i++
		e.Progress()
		if i < n {
			e.AfterCall(1, tick, nil)
		}
	}
	e.AfterCall(1, tick, nil)
	if f := e.RunWatched(&Watchdog{}); f != nil {
		t.Fatalf("clean run faulted: %v", f)
	}

	s := p.Snapshot()
	if !s.Done {
		t.Fatal("probe not marked done after RunWatched returned")
	}
	if s.Events != e.Steps() {
		t.Fatalf("final snapshot events = %d, engine executed %d", s.Events, e.Steps())
	}
	if s.SimTime != int64(e.Now()) {
		t.Fatalf("final snapshot sim time = %d, engine at %d", s.SimTime, e.Now())
	}
	if s.Start == 0 || s.Beat < s.Start {
		t.Fatalf("wall-clock stamps not set: start=%d beat=%d", s.Start, s.Beat)
	}
	if s.Label != "test/BASIC" {
		t.Fatalf("label = %q", s.Label)
	}
	if eps := s.EventsPerSec(); eps < 0 {
		t.Fatalf("negative events/sec %f", eps)
	}
}

// TestProgressConcurrentSnapshots is the race gate: reader goroutines
// snapshot the probe continuously while the simulation runs. Under
// -race this proves the probe is lock-free-safe; the assertions prove the
// readings are monotone.
func TestProgressConcurrentSnapshots(t *testing.T) {
	e := NewEngine()
	p := &Progress{Label: "race/BASIC"}
	e.SetProgress(p)

	const n = 20 * progressStride
	var tick func(any)
	i := 0
	tick = func(any) {
		i++
		e.Progress()
		if i < n {
			e.AfterCall(1, tick, nil)
		}
	}
	e.AfterCall(1, tick, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEvents uint64
			var lastTime int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Snapshot()
				if s.Events < lastEvents || s.SimTime < lastTime {
					t.Errorf("probe moved backward: events %d->%d, time %d->%d",
						lastEvents, s.Events, lastTime, s.SimTime)
					return
				}
				lastEvents, lastTime = s.Events, s.SimTime
			}
		}()
	}
	if f := e.RunWatched(&Watchdog{}); f != nil {
		t.Fatalf("clean run faulted: %v", f)
	}
	close(stop)
	wg.Wait()

	if s := p.Snapshot(); !s.Done || s.Events != e.Steps() {
		t.Fatalf("final snapshot done=%v events=%d (want %d)", s.Done, s.Events, e.Steps())
	}
}

// TestProgressNil checks the zero cases: a nil probe snapshots as zero and
// an engine without a probe runs unchanged.
func TestProgressNil(t *testing.T) {
	var p *Progress
	if s := p.Snapshot(); s != (ProgressSnapshot{}) {
		t.Fatalf("nil probe snapshot = %+v", s)
	}
	e := NewEngine()
	e.AfterCall(1, func(any) { e.Progress() }, nil)
	if f := e.RunWatched(&Watchdog{}); f != nil {
		t.Fatalf("probe-less run faulted: %v", f)
	}
}

// TestProgressHeartbeatAge checks the staleness arithmetic used by the ops
// plane to spot a run stuck inside one event.
func TestProgressHeartbeatAge(t *testing.T) {
	var s ProgressSnapshot
	if got := s.HeartbeatAge(time.Now()); got != 0 {
		t.Fatalf("unstarted probe heartbeat age = %v", got)
	}
	now := time.Now()
	s.Beat = now.Add(-3 * time.Second).UnixNano()
	if got := s.HeartbeatAge(now); got != 3*time.Second {
		t.Fatalf("heartbeat age = %v, want 3s", got)
	}
	s.Start = 0
	s.Events = 100
	if got := s.EventsPerSec(); got != 0 {
		t.Fatalf("unstarted probe events/sec = %f", got)
	}
	s.Start = now.Add(-2 * time.Second).UnixNano()
	s.Beat = now.UnixNano()
	eps := s.EventsPerSec()
	if eps < 49 || eps > 51 {
		t.Fatalf("events/sec = %f, want ~50", eps)
	}
}
