package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential validation of the calendar-queue engine: every schedule a
// fuzzer (or a seeded generator) can express runs through both the real
// engine and a naive reference queue — an unsorted slice scanned for the
// (at, seq) minimum, too slow to ship but obviously correct — and the two
// execution traces must match event for event. Scripts exercise the
// queue's distinct regimes: dense short delays (wheel), far-future delays
// (overflow heap + migration), heavy same-timestamp collisions (cohort
// batching), events spawning events at the current instant (append during
// cohort drain), and RunUntil stopping between cohorts.

// queueAPI is the surface both engines implement; scripts run against it.
type queueAPI interface {
	Now() Time
	Pending() int
	AtCall(Time, func(any), any)
	Run()
	RunUntil(Time)
}

// naiveQueue is the reference: an unsorted slice, linear-scan minimum by
// (at, seq), same past-time panic contract as the engine.
type naiveQueue struct {
	now Time
	seq uint64
	evs []event
}

func (n *naiveQueue) Now() Time    { return n.now }
func (n *naiveQueue) Pending() int { return len(n.evs) }

func (n *naiveQueue) AtCall(t Time, call func(any), arg any) {
	if t < n.now {
		panic(fmt.Sprintf("sim: scheduling event at %d, before now %d", t, n.now))
	}
	n.seq++
	n.evs = append(n.evs, event{at: t, seq: n.seq, call: call, arg: arg})
}

func (n *naiveQueue) step() bool {
	if len(n.evs) == 0 {
		return false
	}
	best := 0
	for i := 1; i < len(n.evs); i++ {
		if n.evs[i].at < n.evs[best].at ||
			(n.evs[i].at == n.evs[best].at && n.evs[i].seq < n.evs[best].seq) {
			best = i
		}
	}
	ev := n.evs[best]
	n.evs = append(n.evs[:best], n.evs[best+1:]...)
	n.now = ev.at
	ev.call(ev.arg)
	return true
}

func (n *naiveQueue) Run() {
	for n.step() {
	}
}

func (n *naiveQueue) RunUntil(t Time) {
	for {
		if len(n.evs) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(n.evs); i++ {
			if n.evs[i].at < n.evs[best].at ||
				(n.evs[i].at == n.evs[best].at && n.evs[i].seq < n.evs[best].seq) {
				best = i
			}
		}
		if n.evs[best].at > t {
			break
		}
		n.step()
	}
	if n.now < t {
		n.now = t
	}
}

// scriptRun interprets an op stream against one queue, recording every
// event firing as "id@time". Spawned children get ids from a counter whose
// evolution depends on execution order — any ordering divergence between
// the two queues therefore shows up in the traces immediately.
type scriptRun struct {
	q      queueAPI
	trace  []string
	nextID int
}

func (s *scriptRun) fire(id int) {
	s.trace = append(s.trace, fmt.Sprintf("%d@%d", id, s.q.Now()))
}

type scriptArg struct {
	s  *scriptRun
	id int
}

func scriptFire(a any) { sa := a.(*scriptArg); sa.s.fire(sa.id) }

// spawner returns a callback that fires and, while depth remains, schedules
// two children: one at the current instant (appending to the cohort being
// drained) and one d pclocks out.
func (s *scriptRun) spawner(id, depth int, d Time) func(any) {
	return func(any) {
		s.fire(id)
		if depth > 0 {
			cid := s.nextID
			s.nextID++
			s.q.AtCall(s.q.Now(), s.spawner(cid, depth-1, d), nil)
			cid = s.nextID
			s.nextID++
			s.q.AtCall(s.q.Now()+d, s.spawner(cid, depth-1, d), nil)
		}
	}
}

// interpret decodes data as (op, val) byte pairs and drives q. The final
// Run drains everything so every script ends quiescent.
func interpret(q queueAPI, data []byte) *scriptRun {
	s := &scriptRun{q: q}
	for i := 0; i+1 < len(data); i += 2 {
		op, val := data[i]%6, Time(data[i+1])
		id := s.nextID
		s.nextID++
		switch op {
		case 0: // dense short delay, capturing callback
			id := id
			s.q.AtCall(s.q.Now()+val%64, func(any) { s.fire(id) }, nil)
		case 1: // mid-range delay, static callback with its argument
			s.q.AtCall(s.q.Now()+val, scriptFire, &scriptArg{s: s, id: id})
		case 2: // far beyond the wheel window: overflow heap + migration
			s.q.AtCall(s.q.Now()+wheelSize+val*37, s.spawner(id, 0, 0), nil)
		case 3: // same-timestamp collision
			id := id
			s.q.AtCall(s.q.Now(), func(any) { s.fire(id) }, nil)
		case 4: // partial drain between cohorts
			s.nextID-- // no event consumed the id
			s.q.RunUntil(s.q.Now() + val*16)
		case 5: // nested spawning, including same-instant children
			s.q.AtCall(s.q.Now()+val%128, s.spawner(id, 2, 1+val%70), nil)
		}
	}
	s.q.Run()
	return s
}

// diffQueues runs one script through both queues and reports the first
// divergence, if any.
func diffQueues(t *testing.T, data []byte) {
	t.Helper()
	real := interpret(NewEngine(), data)
	ref := interpret(&naiveQueue{}, data)
	if len(real.trace) != len(ref.trace) {
		t.Fatalf("engine ran %d events, reference ran %d\nengine: %v\nref:    %v",
			len(real.trace), len(ref.trace), real.trace, ref.trace)
	}
	for i := range real.trace {
		if real.trace[i] != ref.trace[i] {
			t.Fatalf("execution order diverges at event %d: engine %s, reference %s",
				i, real.trace[i], ref.trace[i])
		}
	}
	if rn, nn := real.q.Now(), ref.q.Now(); rn != nn {
		t.Fatalf("final clocks diverge: engine %d, reference %d", rn, nn)
	}
	if real.q.Pending() != 0 || ref.q.Pending() != 0 {
		t.Fatalf("queues not drained: engine %d, reference %d pending",
			real.q.Pending(), ref.q.Pending())
	}
}

// FuzzEventOrder fuzzes random schedules through both queues. `go test`
// runs the seed corpus; `go test -fuzz=FuzzEventOrder ./internal/sim`
// explores beyond it.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 3, 0, 3, 0, 3, 0})             // dense + collisions
	f.Add([]byte{2, 9, 0, 1, 2, 200, 1, 255, 4, 20})        // overflow + partial drain
	f.Add([]byte{5, 33, 5, 33, 3, 0, 2, 3, 4, 255, 5, 130}) // nested spawns across regimes
	f.Add([]byte{4, 1, 4, 200, 2, 0, 2, 0, 3, 7})           // RunUntil before anything queued
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		diffQueues(t, data)
	})
}

// TestEventOrderDifferential drives seeded random scripts (heavier than the
// fuzz seeds) through both queues on every `go test` run.
func TestEventOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 400)
		rng.Read(data)
		// Bias toward same-timestamp collisions and overflow hops: every
		// fourth op becomes a collision, every seventh a far-future event.
		for i := 0; i < len(data); i += 2 {
			switch {
			case i%8 == 0:
				data[i] = 3
			case i%14 == 0:
				data[i] = 2
			}
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { diffQueues(t, data) })
	}
}

// TestEventOrderPastTimePanics pins the past-time contract on both queues:
// scheduling before now must panic identically after arbitrary time travel
// (RunUntil far forward, including past the wheel window).
func TestEventOrderPastTimePanics(t *testing.T) {
	for _, q := range []queueAPI{NewEngine(), &naiveQueue{}} {
		q.RunUntil(3 * wheelSize)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: past-time schedule did not panic", q)
				}
			}()
			q.AtCall(q.Now()-1, scriptFire, nil)
		}()
	}
}
