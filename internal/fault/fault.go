// Package fault defines the simulator's structured fault model. A
// protocol assertion failure, a watchdog abort or a worker panic all
// surface as a *SimFault: a single error value carrying the simulated
// time, the faulting component, the protocol message being handled, the
// Go stack (for panics) and a diagnostic Snapshot of the machine —
// pending transactions, directory state, resource queues, blocked agents
// and the flight recorder's last protocol messages. The package only
// holds and prints that tail: ccsim recomputes it by replaying the
// faulted run with a message sink on the protocol-trace hook.
//
// The package is a leaf: it imports only the standard library, so every
// layer of the simulator (engine, coherence fabric, machine, scheduler)
// can build and return faults without import cycles. Simulated time is
// carried as a bare int64 in pclocks for the same reason.
package fault

import (
	"fmt"
	"io"
	"strings"
)

// Fault kinds: what detected the failure.
const (
	// KindPanic is a recovered protocol assertion (a panic inside the
	// simulation).
	KindPanic = "panic"
	// KindMaxEvents is the watchdog's event-count ceiling.
	KindMaxEvents = "max-events"
	// KindDeadline is the watchdog's simulated-time ceiling.
	KindDeadline = "deadline"
	// KindDeadlock is the watchdog's no-progress detector: the event queue
	// drained while processors remained blocked.
	KindDeadlock = "deadlock"
	// KindLivelock is the watchdog's quiescence-free-spin detector: events
	// kept firing past a threshold without any processor making progress.
	KindLivelock = "livelock"
	// KindInvariant is the live coherence checker: a shadow-state assertion
	// (SWMR, directory-cache agreement, presence supersetting, inclusion,
	// write-cache mask consistency, or the data-value invariant) failed at
	// the protocol transition where it was violated.
	KindInvariant = "invariant"
	// KindCanceled is a cooperative shutdown: the run was asked to stop
	// (SIGINT/SIGTERM, an interrupted sweep) and aborted cleanly at the next
	// event batch instead of being killed mid-state.
	KindCanceled = "canceled"
)

// SimFault is a structured simulation failure. It implements error; the
// one-line Error() names the cause and context, and Dump renders the full
// diagnostic snapshot.
type SimFault struct {
	Kind string // one of the Kind* constants

	Time  int64  // simulated time of the fault, in pclocks
	Steps uint64 // events executed when the fault fired

	// Component names the faulting agent when known: "cache 3", "home 0",
	// "machine", "scheduler worker".
	Component string
	// MsgKind is the protocol message being handled at the fault, when the
	// fault struck inside a message handler ("ReadReq", "Inv", ...).
	MsgKind string
	// Block is the memory block involved; HasBlock distinguishes block 0
	// from no block.
	Block    uint64
	HasBlock bool

	// Message describes the failure: the panic value, or the watchdog's
	// explanation naming the stuck agents.
	Message string

	// Stack is the Go stack at the panic site (nil for watchdog faults).
	Stack []byte

	// Snapshot is the machine's diagnostic state at the fault (may be nil
	// when the machine was too damaged to snapshot).
	Snapshot *Snapshot
}

// Error returns the one-line summary; use Dump for the full diagnostics.
func (f *SimFault) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulation fault (%s) at t=%d", f.Kind, f.Time)
	if f.Component != "" {
		fmt.Fprintf(&b, " in %s", f.Component)
	}
	if f.MsgKind != "" {
		fmt.Fprintf(&b, " handling %s", f.MsgKind)
	}
	if f.HasBlock {
		fmt.Fprintf(&b, " (block %d)", f.Block)
	}
	fmt.Fprintf(&b, ": %s", f.Message)
	return b.String()
}

// Dump writes the full human-readable fault report: the summary line, the
// diagnostic snapshot section by section, the flight recorder's last
// messages, and the panic stack when there is one.
func (f *SimFault) Dump(w io.Writer) {
	fmt.Fprintf(w, "=== SIMULATION FAULT (%s) ===\n", f.Kind)
	fmt.Fprintf(w, "time      %d pclocks (%d events executed)\n", f.Time, f.Steps)
	if f.Component != "" {
		fmt.Fprintf(w, "component %s\n", f.Component)
	}
	if f.MsgKind != "" {
		fmt.Fprintf(w, "message   %s\n", f.MsgKind)
	}
	if f.HasBlock {
		fmt.Fprintf(w, "block     %d\n", f.Block)
	}
	fmt.Fprintf(w, "cause     %s\n", f.Message)
	if s := f.Snapshot; s != nil {
		s.write(w)
	}
	if len(f.Stack) > 0 {
		fmt.Fprintf(w, "stack:\n%s", f.Stack)
	}
	fmt.Fprintf(w, "=== END FAULT ===\n")
}

// Snapshot is the machine's diagnostic state at a fault, captured by
// core.System's FaultSnapshot. Every slice is deterministically ordered so
// two identical faults dump identically.
type Snapshot struct {
	// Caches describes each cache controller with in-flight state.
	Caches []CacheState
	// Dir is the directory state of the faulting block (nil when the fault
	// names no block or the block has no directory entry).
	Dir *DirState
	// Resources lists the contended resources with queued work.
	Resources []ResourceState
	// Blocked names every blocked agent: processors stuck on reads, locks
	// or barriers, and the sync primitives holding them.
	Blocked []string
	// Invariants holds the best-effort invariant findings gathered at the
	// fault: the non-quiescent checker skips blocks with in-flight
	// transactions and reports what is provably wrong in the rest, so the
	// coherence violation that caused a hang appears in the dump.
	Invariants []string
	// Messages is the flight recorder's tail: the last protocol messages
	// sent and delivered, oldest first, from the replay of the faulted
	// run (empty when the run was cancelled or faulted before its first
	// event).
	Messages []Record
	// MessagesSeen counts every send and delivery the replay observed, so
	// a reader can tell how much history the tail kept.
	MessagesSeen uint64
}

// CacheState summarizes one cache controller's in-flight work.
type CacheState struct {
	Node     int
	SLWBUsed int      // pending-transaction entries in use
	FLWBUsed int      // buffered first-level writes
	RelQueue int      // queued releases/barriers awaiting prior writes
	Pending  []string // one line per pending transaction
}

// DirState is the directory entry of the faulting block.
type DirState struct {
	Block    uint64
	Home     int
	State    string // "CLEAN" or "MODIFIED"
	Owner    int    // valid when State == "MODIFIED"
	Presence uint64 // sharer bit vector
	Busy     bool
	Txn      string // in-flight transaction kind while busy
	Deferred int    // requests queued behind the transaction
	Parked   int
}

// ResourceState is one contended resource's queue at the fault.
type ResourceState struct {
	Name  string
	Depth int // requests currently queued or in service
}

func (s *Snapshot) write(w io.Writer) {
	if len(s.Caches) > 0 {
		fmt.Fprintf(w, "caches with pending transactions:\n")
		for _, c := range s.Caches {
			fmt.Fprintf(w, "  cache %d: slwb %d, flwb %d, relq %d\n",
				c.Node, c.SLWBUsed, c.FLWBUsed, c.RelQueue)
			for _, p := range c.Pending {
				fmt.Fprintf(w, "    %s\n", p)
			}
		}
	}
	if d := s.Dir; d != nil {
		fmt.Fprintf(w, "directory entry of block %d (home %d): %s", d.Block, d.Home, d.State)
		if d.State == "MODIFIED" {
			fmt.Fprintf(w, " owner %d", d.Owner)
		}
		fmt.Fprintf(w, " presence %#x", d.Presence)
		if d.Busy {
			fmt.Fprintf(w, " BUSY(%s)", d.Txn)
		}
		if d.Deferred > 0 {
			fmt.Fprintf(w, " deferred %d", d.Deferred)
		}
		if d.Parked > 0 {
			fmt.Fprintf(w, " parked %d", d.Parked)
		}
		fmt.Fprintln(w)
	}
	if len(s.Resources) > 0 {
		fmt.Fprintf(w, "resource queues:\n")
		for _, r := range s.Resources {
			fmt.Fprintf(w, "  %s: depth %d\n", r.Name, r.Depth)
		}
	}
	if len(s.Blocked) > 0 {
		fmt.Fprintf(w, "blocked agents:\n")
		for _, b := range s.Blocked {
			fmt.Fprintf(w, "  %s\n", b)
		}
	}
	if len(s.Invariants) > 0 {
		fmt.Fprintf(w, "invariant findings (best effort, in-flight blocks skipped):\n")
		for _, v := range s.Invariants {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
	if len(s.Messages) > 0 {
		fmt.Fprintf(w, "flight recorder (last %d of %d messages, oldest first):\n",
			len(s.Messages), s.MessagesSeen)
		for _, m := range s.Messages {
			fmt.Fprintf(w, "  t=%-10d %-4s %-10s block %-8d %d->%d\n",
				m.At, m.Op, m.Kind, m.Block, m.Src, m.Dst)
		}
	}
}

// Record is one flight-recorder entry: a protocol message send or
// delivery.
type Record struct {
	At    int64  // simulated time, pclocks
	Op    string // "send" or "recv"
	Kind  string // message type name
	Block uint64
	Src   int
	Dst   int
}
