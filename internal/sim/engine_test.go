package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventRecordSize pins the event record at its four words (at, seq,
// call, arg) and the arena slot at the record plus its link: every
// scheduled event is written into an arena slot, so a field added back to
// the record makes that write larger on every schedule.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 40 {
		t.Errorf("event is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(qnode{}); n != 48 {
		t.Errorf("qnode is %d bytes, want 48", n)
	}
}

// TestEngineSize pins the engine at one word of header per wheel bucket
// (its tail slot) plus the occupancy bitmap and a few counters: every run
// allocates one engine before its first event, so a second per-bucket
// array (a separate head index, say) doubles that.
func TestEngineSize(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n != 17208 {
		t.Errorf("Engine is %d bytes, want 17208", n)
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{30, 10, 20, 10, 5} {
		d := d
		e.AfterCall(d, func(any) { got = append(got, e.Now()) }, nil)
	}
	e.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtCall(7, func(any) { order = append(order, i) }, nil)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

// TestEngineMigrationKeepsFIFO pins FIFO order within a timestamp across
// overflow migration: an event scheduled beyond the wheel window runs
// before events scheduled for the same instant once the window reached it,
// because migration inserts by sequence number. The wheel events sit in
// fresh and recycled arena slots, so a slot whose seq went unwritten shows.
func TestEngineMigrationKeepsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	rec := func(a any) { order = append(order, a.(int)) }
	const at = 2 * wheelSize
	e.AtCall(at, rec, 0) // beyond the window: overflow heap
	for i := 0; i < 4; i++ {
		e.AtCall(Time(i), func(any) {}, nil) // leave recycled slots behind
	}
	e.RunUntil(at - 10) // the window now covers at; nothing has migrated
	for i := 1; i <= 6; i++ {
		e.AtCall(at, rec, i)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran as %v, want 0..6 in order", order)
		}
	}
	if len(order) != 7 {
		t.Fatalf("ran %d events, want 7", len(order))
	}
}

// TestEngineMigratedHeadKeepsTail pins the bucket's tail when a migrated
// event becomes the head of an occupied bucket: events scheduled for the
// same instant afterwards, before and during the cohort's dispatch, must
// still append behind the old tail, in FIFO order.
func TestEngineMigratedHeadKeepsTail(t *testing.T) {
	e := NewEngine()
	var order []int
	rec := func(a any) { order = append(order, a.(int)) }
	const at = 2 * wheelSize
	e.AtCall(at, func(any) {
		order = append(order, 0)
		e.AtCall(at, rec, 5) // appended during dispatch
	}, nil) // beyond the window: overflow heap
	for i := 0; i < 4; i++ {
		e.AtCall(Time(i), func(any) {}, nil) // leave recycled slots behind
	}
	e.RunUntil(at - 10) // the window now covers at; nothing has migrated
	e.AtCall(at, rec, 1)
	e.AtCall(at, rec, 2)
	if next, ok := e.PeekTime(); !ok || next != at {
		t.Fatalf("PeekTime = %d, %v; want %d", next, ok, at)
	}
	if q := e.QueueStats(); q.Migrations != 1 {
		t.Fatalf("%d migrations before the appends, want 1", q.Migrations)
	}
	e.AtCall(at, rec, 3) // after the old tail, not the migrated head
	e.AtCall(at, rec, 4)
	// Step a bounded number of times: a bucket list cut by a wrong tail
	// loses events, which Run would wait for forever.
	for i := 0; i < 100 && e.Pending() > 0; i++ {
		e.Step()
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("same-time events ran as %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("same-time events ran as %v, want %v", order, want)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.AtCall(10, func(any) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtCall(5, func(any) {}, nil)
	}, nil)
	e.Run()
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.AtCall(1, func(any) {
		trace = append(trace, e.Now())
		e.AfterCall(2, func(any) {
			trace = append(trace, e.Now())
			e.AfterCall(0, func(any) { trace = append(trace, e.Now()) }, nil)
		}, nil)
	}, nil)
	e.Run()
	want := []Time{1, 3, 3}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.AtCall(5, func(any) { ran++ }, nil)
	e.AtCall(10, func(any) { ran++ }, nil)
	e.AtCall(15, func(any) { ran++ }, nil)
	e.RunUntil(10)
	if ran != 2 {
		t.Fatalf("ran %d events by t=10, want 2", ran)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d after RunUntil(10)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 || e.Now() != 15 {
		t.Fatalf("after Run: ran=%d now=%d", ran, e.Now())
	}
}

// TestEnginePeekTime pins the queue-agnostic peek accessor the watchdog
// and RunUntil are built on: it reports the earliest pending timestamp —
// wherever that event lives, wheel or overflow — without advancing the
// clock or executing anything.
func TestEnginePeekTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on an empty queue reported an event")
	}
	e.AtCall(50, func(any) {}, nil)
	e.AtCall(7, func(any) {}, nil)
	if at, ok := e.PeekTime(); !ok || at != 7 {
		t.Fatalf("PeekTime = %d, %v; want 7, true", at, ok)
	}
	if e.Now() != 0 || e.Pending() != 2 {
		t.Fatalf("peek disturbed the engine: now=%d pending=%d", e.Now(), e.Pending())
	}
	e.Step()
	if at, ok := e.PeekTime(); !ok || at != 50 {
		t.Fatalf("PeekTime after Step = %d, %v; want 50, true", at, ok)
	}

	// An event far beyond the wheel window peeks from the overflow heap,
	// still without moving the clock.
	far := NewEngine()
	far.AtCall(3*wheelSize+5, func(any) {}, nil)
	if at, ok := far.PeekTime(); !ok || at != 3*wheelSize+5 {
		t.Fatalf("far-future PeekTime = %d, %v; want %d, true", at, ok, 3*wheelSize+5)
	}
	if far.Now() != 0 {
		t.Fatalf("far-future peek advanced the clock to %d", far.Now())
	}
}

func TestEngineStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step() on empty queue returned true")
	}
	if e.Now() != 0 {
		t.Fatal("time advanced with no events")
	}
}

// Property: for any random schedule, events execute in nondecreasing time
// order and every scheduled event executes exactly once.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 500 {
			delays = delays[:500]
		}
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			e.AfterCall(Time(d), func(any) { times = append(times, e.Now()) }, nil)
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			return false
		}
		sorted := make([]Time, len(delays))
		for i, d := range delays {
			sorted[i] = Time(d)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if times[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(42))
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth < 3 {
				for i := 0; i < 2; i++ {
					e.AfterCall(Time(rng.Intn(20)), func(any) { spawn(depth + 1) }, nil)
				}
			}
		}
		for i := 0; i < 8; i++ {
			e.AfterCall(Time(rng.Intn(50)), func(any) { spawn(0) }, nil)
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic trace at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var done []Time
	// Three back-to-back requests of 10 pclocks each, all issued at t=0:
	// they must complete at 10, 20, 30.
	for i := 0; i < 3; i++ {
		r.UseCall(10, func(any) { done = append(done, e.Now()) }, nil)
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if r.BusyTime() != 30 {
		t.Fatalf("BusyTime = %d, want 30", r.BusyTime())
	}
	if r.WaitTime() != 10+20 {
		t.Fatalf("WaitTime = %d, want 30", r.WaitTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mem")
	var done []Time
	r.UseCall(5, func(any) { done = append(done, e.Now()) }, nil)
	e.AtCall(100, func(any) {
		start := r.UseCall(5, func(any) { done = append(done, e.Now()) }, nil)
		if start != 100 {
			t.Errorf("request to idle resource started at %d, want 100", start)
		}
	}, nil)
	e.Run()
	if done[0] != 5 || done[1] != 105 {
		t.Fatalf("completions = %v, want [5 105]", done)
	}
	if r.WaitTime() != 0 {
		t.Fatalf("WaitTime = %d for uncontended uses", r.WaitTime())
	}
}

func TestResourceZeroDuration(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r")
	fired := false
	r.UseCall(0, func(any) { fired = true }, nil)
	e.Run()
	if !fired {
		t.Fatal("zero-duration use never completed")
	}
}

// Property: a resource never overlaps two services, regardless of the
// request pattern.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct{ At, Dur uint8 }) bool {
		e := NewEngine()
		r := NewResource(e, "x")
		type span struct{ start, end Time }
		var spans []span
		for _, q := range reqs {
			q := q
			e.AtCall(Time(q.At), func(any) {
				start := r.reserve(Time(q.Dur))
				spans = append(spans, span{start, start + Time(q.Dur)})
			}, nil)
		}
		e.Run()
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResourcePipelined(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "slc")
	var done []Time
	// Occupancy 3, latency 6: back-to-back requests complete at 6, 9, 12
	// (pipelined), not 6, 12, 18.
	for i := 0; i < 3; i++ {
		r.UsePipelinedCall(3, 6, func(any) { done = append(done, e.Now()) }, nil)
	}
	e.Run()
	want := []Time{6, 9, 12}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if r.BusyTime() != 9 {
		t.Fatalf("BusyTime = %d, want 9", r.BusyTime())
	}
}

func TestResourcePipelinedBadLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("latency < occupancy did not panic")
		}
	}()
	e := NewEngine()
	NewResource(e, "x").UsePipelinedCall(6, 3, func(any) {}, nil)
}

func TestResourceQueueDepth(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	if r.QueueDepth() != 0 || r.MaxQueueDepth() != 0 {
		t.Fatal("fresh resource reports nonzero depth")
	}
	// Three back-to-back requests at t=0: depth peaks at 3 (one in service,
	// two queued).
	for i := 0; i < 3; i++ {
		r.reserve(10)
	}
	if r.QueueDepth() != 3 {
		t.Fatalf("QueueDepth = %d at t=0, want 3", r.QueueDepth())
	}
	e.AtCall(15, func(any) {
		if r.QueueDepth() != 2 {
			t.Errorf("QueueDepth = %d at t=15, want 2", r.QueueDepth())
		}
	}, nil)
	e.AtCall(29, func(any) {
		if r.QueueDepth() != 1 {
			t.Errorf("QueueDepth = %d at t=29, want 1", r.QueueDepth())
		}
	}, nil)
	e.AtCall(30, func(any) {
		if r.QueueDepth() != 0 {
			t.Errorf("QueueDepth = %d at t=30, want 0", r.QueueDepth())
		}
	}, nil)
	// An uncontended request after the burst must not raise the max.
	e.AtCall(50, func(any) { r.reserve(5) }, nil)
	e.AtCall(60, func(any) {}, nil) // advance the clock past the last reservation
	e.Run()
	if r.MaxQueueDepth() != 3 {
		t.Fatalf("MaxQueueDepth = %d, want 3", r.MaxQueueDepth())
	}
	if r.QueueDepth() != 0 {
		t.Fatalf("QueueDepth = %d after drain, want 0", r.QueueDepth())
	}
}

// TestResourceQueueHoldsOnlyLiveReservations keeps a resource busy for
// 100,000 reservations without its queue ever emptying: a backlog of
// eight at time 0, then one arrival per service time. The depth
// bookkeeping must read the same depths as ever while holding about the
// live reservations, not every reservation of the busy period.
func TestResourceQueueHoldsOnlyLiveReservations(t *testing.T) {
	const (
		service = 4
		backlog = 8
		total   = 100_000
	)
	e := NewEngine()
	r := NewResource(e, "bus")
	for i := 0; i < backlog; i++ {
		r.reserve(service)
	}
	left := total - backlog
	var arrive func(any)
	arrive = func(any) {
		r.reserve(service)
		if d := r.QueueDepth(); d != backlog {
			t.Fatalf("QueueDepth = %d at t=%d, want %d", d, e.Now(), backlog)
		}
		if left--; left > 0 {
			e.AfterCall(service, arrive, nil)
		}
	}
	e.AfterCall(service, arrive, nil)
	e.Run()
	if r.Uses() != total || r.MaxQueueDepth() != backlog {
		t.Fatalf("%d uses, MaxQueueDepth %d; want %d and %d", r.Uses(), r.MaxQueueDepth(), total, backlog)
	}
	if limit := 2*r.MaxQueueDepth() + 64; cap(r.pend) > limit {
		t.Fatalf("reservation queue holds %d slots for a depth of %d, limit %d", cap(r.pend), r.MaxQueueDepth(), limit)
	}
}

func TestResourceQueueDepthPipelined(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "slc")
	// Pipelined occupancy 3: reservations end at 3, 6, 9, so at t=0 all
	// three are pending.
	for i := 0; i < 3; i++ {
		r.reserve(3)
	}
	if r.MaxQueueDepth() != 3 {
		t.Fatalf("MaxQueueDepth = %d, want 3", r.MaxQueueDepth())
	}
	e.AtCall(7, func(any) {
		if r.QueueDepth() != 1 {
			t.Errorf("QueueDepth = %d at t=7, want 1", r.QueueDepth())
		}
	}, nil)
	e.Run()
}
