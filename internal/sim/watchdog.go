package sim

import (
	"fmt"
	"strings"

	"ccsim/internal/fault"
)

// Watchdog bounds a simulation run and diagnoses the classic coherence
// failure modes — runaway event storms, deadlock and livelock — instead of
// letting a protocol bug hang the process. All limits are optional; a zero
// field disables that check.
type Watchdog struct {
	// MaxEvents aborts once this many events have executed.
	MaxEvents uint64

	// Deadline aborts before executing any event scheduled after this
	// simulated time.
	Deadline Time

	// NoProgressEvents aborts when this many consecutive events execute
	// without Engine.Progress being called — a quiescence-free spin, the
	// signature of protocol livelock.
	NoProgressEvents uint64

	// Quiesced reports whether the run is complete (every agent finished).
	// When the event queue drains with Quiesced() false, the run
	// deadlocked. A nil Quiesced treats a drained queue as completion.
	Quiesced func() bool

	// Blocked names the stuck agents for deadlock/livelock reports
	// ("proc 3 waiting for lock 512", ...). May be nil.
	Blocked func() []string

	// Cancel, when non-nil, is polled once per batch: a fired flag aborts
	// the run with a canceled fault — the cooperative half of graceful
	// shutdown (the caller decides when to fire it).
	Cancel *Cancel
}

// batchEvents bounds one watchdog batch: RunWatched drains at most this
// many events between two looks at its limits, so it also sets how often
// Cancel is polled. A batch cut at this bound counts in
// QueueStats.CappedBatches. It must be a power of two (the boundary is a
// masked step count); 8192 events take a fraction of a millisecond of
// host time.
const batchEvents = 8192

// RunWatched executes events like Run but under the watchdog's limits. It
// returns nil when the queue drains with the run quiesced, and a
// *fault.SimFault naming the cause and the stuck agents otherwise. The
// fault's Snapshot carries only the blocked-agent list; callers with a
// richer Snapshotter (the machine) replace it.
//
// Dispatch is batched: each loop iteration checks the limits and the
// cancel flag once, then drains up to one timestamp cohort. The batch
// budget is capped at the distance to the nearest limit, so every ceiling
// fires at exactly the event count per-event checking would produce — and
// a cohort that never empties (a zero-delay livelock) cannot starve the
// watchdog.
func (e *Engine) RunWatched(w *Watchdog) *fault.SimFault {
	for e.pending > 0 {
		if w.Cancel.Cancelled() {
			return e.watchdogFault(w, fault.KindCanceled,
				fmt.Sprintf("run cancelled by shutdown request after %d events", e.nsteps))
		}
		if w.MaxEvents > 0 && e.nsteps >= w.MaxEvents {
			return e.watchdogFault(w, fault.KindMaxEvents,
				fmt.Sprintf("event ceiling reached: %d events executed without completing", e.nsteps))
		}
		if w.NoProgressEvents > 0 && e.nsteps-e.progressAt >= w.NoProgressEvents {
			return e.watchdogFault(w, fault.KindLivelock,
				fmt.Sprintf("suspected livelock: %d events executed with no processor progress", e.nsteps-e.progressAt))
		}
		if w.Deadline > 0 {
			if next, ok := e.PeekTime(); ok && next > w.Deadline {
				return e.watchdogFault(w, fault.KindDeadline,
					fmt.Sprintf("simulated-time ceiling %d reached (next event at t=%d)", w.Deadline, next))
			}
		}
		// Batch budget: run to the next batchEvents boundary or limit
		// threshold, whichever comes first.
		budget := uint64(batchEvents) - e.nsteps&(batchEvents-1)
		if w.MaxEvents > 0 {
			if left := w.MaxEvents - e.nsteps; left < budget {
				budget = left
			}
		}
		if w.NoProgressEvents > 0 {
			if left := w.NoProgressEvents - (e.nsteps - e.progressAt); left < budget {
				budget = left
			}
		}
		e.runCohort(budget)
	}
	if w.Quiesced != nil && !w.Quiesced() {
		return e.watchdogFault(w, fault.KindDeadlock,
			"deadlock: event queue empty but the run did not complete")
	}
	return nil
}

// watchdogFault builds the fault, folding the blocked-agent names into the
// message (the issue's contract: the SimFault names the stuck agents) and
// into a minimal snapshot.
func (e *Engine) watchdogFault(w *Watchdog, kind, msg string) *fault.SimFault {
	var blocked []string
	if w.Blocked != nil {
		blocked = w.Blocked()
	}
	if len(blocked) > 0 {
		msg += "; blocked: " + strings.Join(blocked, ", ")
	}
	return &fault.SimFault{
		Kind:      kind,
		Time:      int64(e.now),
		Steps:     e.nsteps,
		Component: "watchdog",
		Message:   msg,
		Snapshot:  &fault.Snapshot{Blocked: blocked},
	}
}
