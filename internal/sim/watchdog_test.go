package sim

import (
	"strconv"
	"strings"
	"testing"

	"ccsim/internal/fault"
)

// TestWatchdogMaxEvents runs a self-perpetuating event chain into the
// event ceiling and checks the fault blames it.
func TestWatchdogMaxEvents(t *testing.T) {
	e := NewEngine()
	var tick func(any)
	tick = func(any) { e.AfterCall(1, tick, nil) }
	e.AfterCall(0, tick, nil)
	f := e.RunWatched(&Watchdog{MaxEvents: 100})
	if f == nil {
		t.Fatal("runaway event chain completed under a 100-event ceiling")
	}
	if f.Kind != fault.KindMaxEvents {
		t.Fatalf("fault kind %q, want %q", f.Kind, fault.KindMaxEvents)
	}
	if e.Steps() != 100 {
		t.Fatalf("executed %d events before aborting, want exactly 100", e.Steps())
	}
}

// TestWatchdogDeadlock models two agents each waiting for the other's
// signal: the queue drains without quiescence, and the fault must name
// both stuck agents.
func TestWatchdogDeadlock(t *testing.T) {
	e := NewEngine()
	// Agent A grabs resource 1, agent B grabs resource 2; each then requests
	// the other's resource and parks its continuation in a wait list that
	// nothing will ever service — the classic ABBA deadlock, reduced to the
	// engine's view: activity, then an empty queue with both agents blocked.
	holder := map[int]string{}
	waiting := map[string]int{}
	grab := func(who string, res int) func(any) {
		return func(any) {
			if _, held := holder[res]; held {
				waiting[who] = res // parked forever: no release event exists
				return
			}
			holder[res] = who
		}
	}
	e.AfterCall(0, grab("A", 1), nil)
	e.AfterCall(0, grab("B", 2), nil)
	e.AfterCall(1, grab("A", 2), nil)
	e.AfterCall(1, grab("B", 1), nil)
	f := e.RunWatched(&Watchdog{
		Quiesced: func() bool { return len(waiting) == 0 },
		Blocked: func() []string {
			return []string{"agent A waiting for resource 2", "agent B waiting for resource 1"}
		},
	})
	if f == nil {
		t.Fatal("deadlocked run reported as complete")
	}
	if f.Kind != fault.KindDeadlock {
		t.Fatalf("fault kind %q, want %q", f.Kind, fault.KindDeadlock)
	}
	for _, agent := range []string{"agent A waiting for resource 2", "agent B waiting for resource 1"} {
		if !strings.Contains(f.Message, agent) {
			t.Errorf("fault message %q does not name %q", f.Message, agent)
		}
	}
	if f.Snapshot == nil || len(f.Snapshot.Blocked) != 2 {
		t.Errorf("fault snapshot missing the blocked-agent list: %+v", f.Snapshot)
	}
}

// TestWatchdogLivelock ping-pongs events without ever marking progress and
// checks the no-progress detector fires.
func TestWatchdogLivelock(t *testing.T) {
	e := NewEngine()
	var a, b func(any)
	a = func(any) { e.AfterCall(1, b, nil) }
	b = func(any) { e.AfterCall(1, a, nil) }
	e.AfterCall(0, a, nil)
	f := e.RunWatched(&Watchdog{
		NoProgressEvents: 50,
		Blocked:          func() []string { return []string{"proc 7 spinning on block 3"} },
	})
	if f == nil || f.Kind != fault.KindLivelock {
		t.Fatalf("fault = %v, want kind %q", f, fault.KindLivelock)
	}
	if !strings.Contains(f.Message, "proc 7 spinning on block 3") {
		t.Errorf("livelock fault does not name the spinning agent: %q", f.Message)
	}
}

// TestWatchdogProgressDefersLivelock interleaves Progress marks into the
// same ping-pong; the detector must then never fire.
func TestWatchdogProgressDefersLivelock(t *testing.T) {
	e := NewEngine()
	n := 0
	var a func(any)
	a = func(any) {
		e.Progress()
		if n++; n < 500 {
			e.AfterCall(1, a, nil)
		}
	}
	e.AfterCall(0, a, nil)
	if f := e.RunWatched(&Watchdog{NoProgressEvents: 50}); f != nil {
		t.Fatalf("progressing run tripped the livelock detector: %v", f)
	}
}

// TestWatchdogDeadline checks the simulated-time ceiling aborts before
// executing events beyond it.
func TestWatchdogDeadline(t *testing.T) {
	e := NewEngine()
	ran := false
	e.AfterCall(10, func(any) {}, nil)
	e.AfterCall(1000, func(any) { ran = true }, nil)
	f := e.RunWatched(&Watchdog{Deadline: 500})
	if f == nil || f.Kind != fault.KindDeadline {
		t.Fatalf("fault = %v, want kind %q", f, fault.KindDeadline)
	}
	if ran {
		t.Fatal("event beyond the deadline executed")
	}
	// The message is pinned exactly: it must come from the PeekTime
	// accessor, naming both the ceiling and the next event's timestamp.
	if want := "simulated-time ceiling 500 reached (next event at t=1000)"; f.Message != want {
		t.Errorf("deadline fault message %q, want %q", f.Message, want)
	}
}

// TestWatchdogDeadlinePeeksOverflow puts the next event far beyond the
// calendar wheel's window: the deadline check must peek it from the
// overflow heap without executing or migrating anything visible.
func TestWatchdogDeadlinePeeksOverflow(t *testing.T) {
	e := NewEngine()
	e.AfterCall(10, func(any) {}, nil)
	next := Time(2*wheelSize + 77)
	e.AfterCall(next, func(any) { t.Error("event beyond the deadline executed") }, nil)
	f := e.RunWatched(&Watchdog{Deadline: 500})
	if f == nil || f.Kind != fault.KindDeadline {
		t.Fatalf("fault = %v, want kind %q", f, fault.KindDeadline)
	}
	if want := "simulated-time ceiling 500 reached (next event at t=" +
		strconv.FormatInt(int64(next), 10) + ")"; f.Message != want {
		t.Errorf("deadline fault message %q, want %q", f.Message, want)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after deadline fault, want 1", e.Pending())
	}
}

// TestWatchdogCleanRun drives a normal program under tight-but-sufficient
// limits: no fault, every event executed.
func TestWatchdogCleanRun(t *testing.T) {
	e := NewEngine()
	ran := 0
	var step func(any)
	step = func(any) {
		e.Progress()
		if ran++; ran < 20 {
			e.AfterCall(5, step, nil)
		}
	}
	e.AfterCall(0, step, nil)
	done := false
	f := e.RunWatched(&Watchdog{
		MaxEvents:        25,  // 20 needed
		Deadline:         100, // last event at t=95
		NoProgressEvents: 3,   // every event marks progress
		Quiesced:         func() bool { done = ran == 20; return done },
	})
	if f != nil {
		t.Fatalf("clean run faulted: %v", f)
	}
	if ran != 20 || !done {
		t.Fatalf("ran %d of 20 events (quiesced %v)", ran, done)
	}
}

// TestWatchdogCancelPreFired: a cancel flag fired before the run starts
// aborts it before any event executes.
func TestWatchdogCancelPreFired(t *testing.T) {
	e := NewEngine()
	e.AfterCall(0, func(any) { t.Error("event executed after cancellation") }, nil)
	c := &Cancel{}
	c.Cancel()
	f := e.RunWatched(&Watchdog{Cancel: c})
	if f == nil || f.Kind != fault.KindCanceled {
		t.Fatalf("fault = %v, want kind %q", f, fault.KindCanceled)
	}
	if e.Steps() != 0 {
		t.Fatalf("executed %d events after a pre-fired cancel", e.Steps())
	}
}

// TestWatchdogCancelMidRun fires the flag from inside an event callback —
// the shape of a signal handler interrupting an in-flight run — and checks
// the batched poll stops the run at the next cohort boundary.
func TestWatchdogCancelMidRun(t *testing.T) {
	e := NewEngine()
	c := &Cancel{}
	ran := 0
	var tick func(any)
	tick = func(any) {
		if ran++; ran == 5 {
			c.Cancel()
		}
		e.AfterCall(1, tick, nil) // self-perpetuating: only the cancel can stop it
	}
	e.AfterCall(0, tick, nil)
	f := e.RunWatched(&Watchdog{Cancel: c, MaxEvents: 1_000_000})
	if f == nil || f.Kind != fault.KindCanceled {
		t.Fatalf("fault = %v, want kind %q", f, fault.KindCanceled)
	}
	if ran < 5 || ran > 16 {
		t.Fatalf("ran %d events; cancel at 5 should stop within one batch", ran)
	}
	if !strings.Contains(f.Message, "cancelled") {
		t.Errorf("cancel fault message %q does not say cancelled", f.Message)
	}
}

// TestCancelNilReceiver: Cancelled on a nil *Cancel (the un-attached
// default) must be false, not a panic.
func TestCancelNilReceiver(t *testing.T) {
	var c *Cancel
	if c.Cancelled() {
		t.Fatal("nil Cancel reports cancelled")
	}
}
