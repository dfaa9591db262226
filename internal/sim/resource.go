package sim

// Resource models a unit that services requests one at a time in FIFO order
// of arrival: a split-transaction bus, an interleaved memory module, a mesh
// link. A request occupies the resource for a caller-specified duration;
// requests arriving while it is occupied queue behind it. This is the whole
// of the paper's "contention is accurately modelled in each node".
//
// Resources stay queue-agnostic: completions go through the engine's
// ordinary AtCall scheduling. They are also why the calendar wheel's
// window is sized in the thousands of pclocks — under heavy contention a
// completion lands at freeAt + dur, which stacks queue-depth × occupancy
// into the future (see wheelBits in engine.go).
type Resource struct {
	eng    *Engine
	name   string
	freeAt Time

	// Statistics.
	uses     uint64
	busyTime Time
	waitTime Time

	// Queue-depth tracking: end-of-service times of reservations not yet
	// finished at the last observation. FIFO order makes these monotone, so
	// expiring the head is enough. pendHead trims lazily, and expire moves
	// the live tail down once the head passes half the slice, so pend holds
	// about twice the live reservations however long the resource stays
	// busy, at an amortized copy of one element per reservation.
	pend     []Time
	pendHead int
	maxDepth int
}

// NewResource returns an idle resource attached to eng.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the identifier given at construction.
func (r *Resource) Name() string { return r.name }

// reserve books the resource for occupy pclocks at the earliest free
// instant >= now, updating statistics and depth tracking, and returns the
// service start time.
func (r *Resource) reserve(occupy Time) Time {
	now := r.eng.Now()
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.uses++
	r.waitTime += start - now
	r.busyTime += occupy
	r.freeAt = start + occupy

	r.expire(now)
	r.pend = append(r.pend, start+occupy)
	if d := len(r.pend) - r.pendHead; d > r.maxDepth {
		r.maxDepth = d
	}
	return start
}

// expire drops reservations whose service ended at or before now.
func (r *Resource) expire(now Time) {
	for r.pendHead < len(r.pend) && r.pend[r.pendHead] <= now {
		r.pendHead++
	}
	if r.pendHead > len(r.pend)/2 {
		r.pend = r.pend[:copy(r.pend, r.pend[r.pendHead:])]
		r.pendHead = 0
	}
}

// UseCall reserves the resource for dur pclocks starting at the earliest
// instant >= now at which it is free, and schedules done(arg) to run when
// service completes. It returns the time at which service will begin.
// Callers that pool arg schedule the completion with zero allocations.
func (r *Resource) UseCall(dur Time, done func(any), arg any) Time {
	start := r.reserve(dur)
	r.eng.AtCall(start+dur, done, arg)
	return start
}

// UsePipelinedCall reserves the resource for occupy pclocks (its cycle
// time) but schedules done(arg) only latency pclocks after service start —
// the behavior of a pipelined SRAM whose cycle time is shorter than its
// access latency. latency must be >= occupy.
func (r *Resource) UsePipelinedCall(occupy, latency Time, done func(any), arg any) Time {
	if latency < occupy {
		panic("sim: pipelined latency shorter than occupancy")
	}
	start := r.reserve(occupy)
	r.eng.AtCall(start+latency, done, arg)
	return start
}

// FreeAt returns the time at which the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Uses returns how many requests have been serviced or queued.
func (r *Resource) Uses() uint64 { return r.uses }

// BusyTime returns total occupied pclocks.
func (r *Resource) BusyTime() Time { return r.busyTime }

// WaitTime returns total pclocks requests spent queued before service.
func (r *Resource) WaitTime() Time { return r.waitTime }

// QueueDepth returns the number of reservations in service or queued now.
func (r *Resource) QueueDepth() int {
	r.expire(r.eng.Now())
	return len(r.pend) - r.pendHead
}

// MaxQueueDepth returns the largest instantaneous queue depth observed,
// counting the reservation in service.
func (r *Resource) MaxQueueDepth() int { return r.maxDepth }
