// Package sim provides the deterministic discrete-event engine that drives
// the multiprocessor simulation. Time is counted in processor clocks
// (pclocks; 1 pclock = 10 ns at the paper's 100 MHz). Events scheduled for
// the same instant execute in the order they were scheduled, which makes
// every simulation bit-reproducible.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in simulated time, in pclocks.
type Time int64

// event is a callback scheduled to run at a given simulated time: a static
// function and its argument, run as call(arg). It is the engine's only event
// form, and it is allocation-free — a package-level func(any) is a constant,
// and boxing a pointer argument in an interface allocates nothing, so
// components can pool their argument structs and schedule events without
// any per-event garbage.
type event struct {
	at   Time
	seq  uint64
	call func(any)
	arg  any
}

// The event queue is a calendar (timing-wheel) queue rather than a binary
// heap. The simulator's profile is the classic amortized-O(1) case: sim
// time is bounded and densely populated, and nearly every delay is a short
// fixed latency (network hops >= 54 pclocks, pipelined SLC/memory slots of
// a few pclocks), so almost every event lands within a small window of the
// current time.
//
//   - The wheel has wheelSize buckets of one pclock each. An event with
//     at - now < wheelSize goes to bucket at & wheelMask; because the
//     engine executes strictly in time order, every live wheel event
//     satisfies at ∈ [now, now+wheelSize), which makes the bucket mapping
//     injective: a bucket holds events of exactly one timestamp — a
//     cohort. Scheduling and dispatch are O(1) plus a bitmap scan.
//   - Events at or beyond now+wheelSize wait in a small (at, seq) min-heap
//     (overflow) and migrate into the wheel once the window reaches them.
//     Long delays are rare (processor compute phases), so heap cost is
//     negligible.
//   - Buckets are singly-linked lists threaded through a slab (arena) with
//     an intrusive free list, so steady-state scheduling allocates nothing
//     no matter which buckets the sliding window touches. Each list is
//     circular and its header is its tail slot, whose link names the
//     head: one word of header per bucket reaches both ends.
//
// FIFO order within a timestamp is preserved exactly: direct scheduling
// appends at the bucket tail (the global seq counter is monotone), and
// migration from the overflow heap — the only source of out-of-order
// arrivals — inserts by seq. Every run stays bit-identical to the
// binary-heap engine it replaced (the golden metrics gate enforces this).
// wheelBits sizes the window: 4096 pclocks comfortably covers every fixed
// latency in the machine plus completion times stacked a few hundred deep
// on a contended resource, at 16 KB of per-engine bucket headers.
const (
	wheelBits  = 12
	wheelSize  = 1 << wheelBits // pclocks covered by the wheel window
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
)

// qnode is one arena slot: an event plus the intrusive link. next chains
// bucket lists (a bucket's tail links back to its head) and the free list
// (-1 ends it).
type qnode struct {
	ev   event
	next int32
}

// Engine is a discrete-event simulation kernel. The zero value is not ready
// to use; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	nsteps  uint64
	pending int

	// arena holds wheel events; free heads the intrusive free list.
	arena []qnode
	free  int32

	// btail is each bucket's last slot, meaningful only while the bucket's
	// occupancy bit is set. A bucket's list is circular: its tail's next
	// is its head.
	btail [wheelSize]int32
	occ   [wheelWords]uint64

	// overflow is the (at, seq) min-heap of events beyond the wheel window.
	overflow []event

	// progressAt is the step count at the last Progress() call; RunWatched's
	// livelock detector measures event activity against it.
	progressAt uint64

	// qstats holds the always-on queue introspection counters (see
	// QueueStats); wheelLive tracks the current wheel-resident event count
	// so AtCall and migrate can maintain the occupancy high-water mark.
	qstats    QueueStats
	wheelLive int
}

// startSlots is the arena's starting capacity. It covers the wheel
// high-water mark of a typical run (a few dozen events); a busier run
// grows the arena by append in slot and keeps what it grew to.
const startSlots = 64

// NewEngine returns an engine with an empty event queue at time 0.
func NewEngine() *Engine {
	return &Engine{arena: make([]qnode, 0, startSlots), free: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// PeekTime returns the timestamp of the earliest pending event. ok is false
// when the queue is empty. It is the queue-agnostic accessor the watchdog's
// deadline check and RunUntil use instead of reaching into the queue.
func (e *Engine) PeekTime() (t Time, ok bool) {
	if e.pending == 0 {
		return 0, false
	}
	e.migrate()
	if e.pending > len(e.overflow) {
		b := e.nextBucket()
		return e.arena[e.arena[e.btail[b]].next].ev.at, true
	}
	return e.overflow[0].at, true
}

// Progress marks forward progress at the agent level (a processor retiring
// an operation). The watchdog's livelock detector counts events since the
// last mark; protocol chatter that never lets any processor advance trips
// it. Calling it costs one store.
func (e *Engine) Progress() { e.progressAt = e.nsteps }

// AtCall schedules call(arg) to run at absolute time t. Callers pass a
// static function and keep arg on a free list (or pass a long-lived
// pointer), so scheduling allocates nothing. Scheduling in the past panics:
// it always indicates a bug in a component's timing arithmetic. An event
// inside the wheel window is written straight into its arena slot; one
// beyond it goes to the overflow heap.
func (e *Engine) AtCall(t Time, call func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d, before now %d", t, e.now))
	}
	e.seq++
	e.pending++
	if t-e.now >= wheelSize {
		e.qstats.OverflowScheduled++
		e.overflowPush(event{at: t, seq: e.seq, call: call, arg: arg})
		if n := len(e.overflow); n > e.qstats.OverflowHighWater {
			e.qstats.OverflowHighWater = n
		}
		return
	}
	e.qstats.WheelScheduled++
	e.wheelLive++
	if e.wheelLive > e.qstats.WheelHighWater {
		e.qstats.WheelHighWater = e.wheelLive
	}
	s := e.slot()
	ev := &e.arena[s].ev
	ev.at, ev.seq, ev.call, ev.arg = t, e.seq, call, arg
	b := int(t) & wheelMask
	w, bit := b>>6, uint64(1)<<uint(b&63)
	if e.occ[w]&bit != 0 {
		tail := &e.arena[e.btail[b]]
		e.arena[s].next = tail.next
		tail.next = s
	} else {
		e.occ[w] |= bit
		e.arena[s].next = s
	}
	e.btail[b] = s
}

// AfterCall schedules call(arg) to run d pclocks from now. d must be >= 0.
func (e *Engine) AfterCall(d Time, call func(any), arg any) { e.AtCall(e.now+d, call, arg) }

// slot returns a free arena slot, reusing the free list when possible. The
// caller writes the slot's event.
func (e *Engine) slot() int32 {
	s := e.free
	if s >= 0 {
		e.free = e.arena[s].next
		return s
	}
	e.arena = append(e.arena, qnode{})
	return int32(len(e.arena) - 1)
}

// migrate moves overflow events whose time has come inside the wheel
// window into their buckets. A migrated event predates (by seq) anything
// scheduled directly into the window since, so it inserts by seq rather
// than appending; this is the only path that does, and it is rare.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 && e.overflow[0].at-e.now < wheelSize {
		ev := e.overflowPop()
		e.qstats.Migrations++
		e.wheelLive++
		if e.wheelLive > e.qstats.WheelHighWater {
			e.qstats.WheelHighWater = e.wheelLive
		}
		s := e.slot()
		e.arena[s].ev = ev
		b := int(ev.at) & wheelMask
		w, bit := b>>6, uint64(1)<<uint(b&63)
		if e.occ[w]&bit == 0 {
			e.occ[w] |= bit
			e.arena[s].next = s
			e.btail[b] = s
			continue
		}
		// Insert after the last slot whose event precedes ev. When ev
		// precedes the head, that is the tail, and ev becomes the head.
		tail := e.btail[b]
		p := tail
		if h := e.arena[tail].next; ev.seq > e.arena[h].ev.seq {
			p = h
			for p != tail && e.arena[e.arena[p].next].ev.seq < ev.seq {
				p = e.arena[p].next
			}
			if p == tail {
				e.btail[b] = s
			}
		}
		e.arena[s].next = e.arena[p].next
		e.arena[p].next = s
	}
}

// nextBucket returns the occupied bucket holding the earliest wheel
// timestamp: circular order starting at now's bucket is time order within
// the window. The caller guarantees the wheel is non-empty.
func (e *Engine) nextBucket() int {
	start := int(e.now) & wheelMask
	w := start >> 6
	if m := e.occ[w] &^ (uint64(1)<<uint(start&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for i := 1; i < wheelWords; i++ {
		idx := (w + i) & (wheelWords - 1)
		if m := e.occ[idx]; m != 0 {
			return idx<<6 + bits.TrailingZeros64(m)
		}
	}
	m := e.occ[w] & (uint64(1)<<uint(start&63) - 1)
	return w<<6 + bits.TrailingZeros64(m)
}

// runCohort executes the earliest pending timestamp's cohort — including
// same-time events its callbacks schedule — in FIFO order, stopping after
// at most budget events. The whole batch shares one clock update and one
// queue lookup; per event the dispatch loop touches only the bucket list.
// It returns the number of events executed.
func (e *Engine) runCohort(budget uint64) uint64 {
	if e.pending == 0 || budget == 0 {
		return 0
	}
	e.migrate()
	if e.pending == len(e.overflow) {
		// Everything pending sits beyond the wheel window: jump the window
		// to the earliest event and pull its neighborhood in.
		e.now = e.overflow[0].at
		e.migrate()
	}
	b := e.nextBucket()
	w, bit := b>>6, uint64(1)<<uint(b&63)
	e.now = e.arena[e.arena[e.btail[b]].next].ev.at
	var ran uint64
	for ran < budget && e.occ[w]&bit != 0 {
		ti := e.btail[b]
		tail := &e.arena[ti]
		s := tail.next
		n := &e.arena[s]
		call, arg := n.ev.call, n.ev.arg
		if s == ti {
			e.occ[w] &^= bit
		} else {
			tail.next = n.next
		}
		n.next = e.free
		e.free = s
		e.pending--
		e.nsteps++
		ran++
		call(arg)
	}
	if ran > 0 {
		e.wheelLive -= int(ran)
		q := &e.qstats
		q.Dispatched += ran
		q.Cohorts++
		if ran > q.MaxCohort {
			q.MaxCohort = ran
		}
		idx := bits.Len64(ran) - 1
		if idx >= cohortLogBuckets {
			idx = cohortLogBuckets - 1
		}
		q.CohortSizeLog2[idx]++
		if ran == budget && e.occ[w]&bit != 0 {
			q.CappedBatches++
		}
	}
	return ran
}

// Step executes the single earliest pending event and reports whether one
// was executed.
func (e *Engine) Step() bool {
	return e.runCohort(1) > 0
}

// Run executes events until the queue is empty, one timestamp cohort at a
// time.
func (e *Engine) Run() {
	for e.pending > 0 {
		e.runCohort(^uint64(0))
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t Time) {
	for {
		next, ok := e.PeekTime()
		if !ok || next > t {
			break
		}
		e.runCohort(^uint64(0))
	}
	if e.now < t {
		e.now = t
	}
}

// overflowPush and overflowPop maintain the (at, seq) min-heap of events
// beyond the wheel window.
func overflowLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) overflowPush(ev event) {
	e.overflow = append(e.overflow, ev)
	i := len(e.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(e.overflow[i], e.overflow[parent]) {
			break
		}
		e.overflow[i], e.overflow[parent] = e.overflow[parent], e.overflow[i]
		i = parent
	}
}

func (e *Engine) overflowPop() event {
	top := e.overflow[0]
	last := len(e.overflow) - 1
	e.overflow[0] = e.overflow[last]
	e.overflow[last] = event{} // drop call/arg references
	e.overflow = e.overflow[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && overflowLess(e.overflow[l], e.overflow[smallest]) {
			smallest = l
		}
		if r < last && overflowLess(e.overflow[r], e.overflow[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		e.overflow[i], e.overflow[smallest] = e.overflow[smallest], e.overflow[i]
		i = smallest
	}
	return top
}
