// Package proc models the paper's processors: standard, off-the-shelf,
// single-context processors with blocking loads (paper §2). A processor
// executes an operation stream produced by a workload generator and
// accumulates the execution-time decomposition the paper reports: busy time
// and read / write / acquire / release stall times.
package proc

import (
	"ccsim/internal/memsys"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
	"ccsim/internal/telemetry"
)

// OpKind enumerates workload operations.
type OpKind int

const (
	// OpBusy models local computation and private references (simulated as
	// FLC hits, per the paper's methodology) for Cycles pclocks.
	OpBusy OpKind = iota
	// OpRead is a shared-data load from Addr; the processor blocks until
	// the data reaches the FLC.
	OpRead
	// OpWrite is a shared-data store to Addr. Under RC it only blocks on a
	// full write buffer; under SC it blocks until globally performed.
	OpWrite
	// OpAcquire acquires the queue-based lock whose variable lives at Addr.
	OpAcquire
	// OpRelease releases that lock.
	OpRelease
	// OpBarrier joins the machine-wide barrier identified by Bar.
	OpBarrier
	// OpStatsOn marks the start of the measured parallel section. Every
	// workload must emit it exactly once per processor.
	OpStatsOn
)

// Op is one workload operation.
type Op struct {
	Kind   OpKind
	Addr   memsys.Addr
	Cycles int64 // for OpBusy
	Bar    int   // for OpBarrier
}

// Stream produces a processor's operations one at a time; the generator's
// state advances only when the simulated processor completes the previous
// operation, exactly like the program-driven simulation the paper uses.
type Stream interface {
	Next() (Op, bool)
}

// Memory is the node's memory system as the processor sees it (implemented
// by core.CacheCtl). Callbacks are always invoked asynchronously, on a
// later event.
type Memory interface {
	// Read returns true on an FLC hit; otherwise unblock runs when the
	// block reaches the FLC.
	Read(a memsys.Addr, unblock func()) bool
	// Write returns true if the FLWB accepted the write now; otherwise
	// accepted runs when a slot frees. performed (nil allowed) runs when
	// the write is globally performed.
	Write(a memsys.Addr, accepted, performed func()) bool
	Acquire(a memsys.Addr, unblock func())
	// Release returns true if the processor may continue immediately (RC);
	// under SC it returns false and unblock runs at the acknowledgment.
	Release(a memsys.Addr, unblock func()) bool
	Barrier(id int, unblock func())
}

// Processor drives one operation stream against one memory system.
type Processor struct {
	ID int

	eng    *sim.Engine
	mem    Memory
	stream Stream
	sc     bool

	flcAccess sim.Time
	flcFill   sim.Time

	// Stats is the time decomposition; counters accumulate only while
	// statsOn (the measured parallel section).
	Stats   stats.Proc
	statsOn bool

	// StatsOnHook is called when the stream emits OpStatsOn (used by the
	// machine to start the measured region globally).
	StatsOnHook func()

	// Tele, when non-nil, receives the processor's stall intervals (nil is
	// a no-op sink).
	Tele *telemetry.Collector

	// stepFn and the continuations below are method values bound once at
	// construction: every operation schedules one, and binding per call
	// would allocate a closure per simulated reference. A blocked processor
	// has at most one continuation pending, so blockStart, the blocked
	// operation's issue time, is the only state they need.
	stepFn         func()
	readDoneFn     func()
	writeAcceptFn  func()
	writePerformFn func()
	acquireDoneFn  func()
	releaseDoneFn  func()
	barrierDoneFn  func()
	blockStart     sim.Time

	done     bool
	doneTime sim.Time
	// DoneHook is called when the stream is exhausted.
	DoneHook func()
}

// Config bundles processor construction parameters.
type Config struct {
	ID        int
	SC        bool
	FLCAccess sim.Time
	FLCFill   sim.Time
}

// New returns a processor ready to Start.
func New(eng *sim.Engine, mem Memory, stream Stream, cfg Config) *Processor {
	p := &Processor{
		ID:        cfg.ID,
		eng:       eng,
		mem:       mem,
		stream:    stream,
		sc:        cfg.SC,
		flcAccess: cfg.FLCAccess,
		flcFill:   cfg.FLCFill,
	}
	p.stepFn = p.step
	p.readDoneFn = p.readDone
	p.writeAcceptFn = p.writeAccepted
	p.writePerformFn = p.writePerformed
	p.acquireDoneFn = p.acquireDone
	p.releaseDoneFn = p.releaseDone
	p.barrierDoneFn = p.barrierDone
	return p
}

// Start schedules the processor's first operation at the current time.
func (p *Processor) Start() { p.eng.After(0, p.stepFn) }

// Done reports whether the stream is exhausted.
func (p *Processor) Done() bool { return p.done }

// DoneTime returns when the processor finished (valid once Done).
func (p *Processor) DoneTime() sim.Time { return p.doneTime }

// SetStatsEnabled switches stall/busy accounting on or off.
func (p *Processor) SetStatsEnabled(on bool) { p.statsOn = on }

func (p *Processor) busy(t sim.Time) {
	if p.statsOn {
		p.Stats.Busy += int64(t)
	}
}

// stall records the blocked interval [from, now] on the timeline.
func (p *Processor) stall(kind string, from sim.Time) {
	if p.statsOn && p.Tele != nil {
		p.Tele.StallInterval(p.ID, kind, int64(from), int64(p.eng.Now()))
	}
}

func (p *Processor) step() {
	// Reaching step means the previous operation retired — the forward
	// progress the watchdog's livelock detector watches for.
	p.eng.Progress()
	op, ok := p.stream.Next()
	if !ok {
		p.done = true
		p.doneTime = p.eng.Now()
		if p.DoneHook != nil {
			p.DoneHook()
		}
		return
	}
	switch op.Kind {
	case OpBusy:
		p.busy(sim.Time(op.Cycles))
		p.eng.After(sim.Time(op.Cycles), p.stepFn)

	case OpRead:
		if p.statsOn {
			p.Stats.Reads++
		}
		p.blockStart = p.eng.Now()
		if p.mem.Read(op.Addr, p.readDoneFn) {
			p.busy(p.flcAccess)
			p.eng.After(p.flcAccess, p.stepFn)
		}

	case OpWrite:
		if p.statsOn {
			p.Stats.Writes++
		}
		p.blockStart = p.eng.Now()
		if p.sc {
			// Sequential consistency: stall until globally performed.
			p.mem.Write(op.Addr, nil, p.writePerformFn)
			return
		}
		if p.mem.Write(op.Addr, p.writeAcceptFn, nil) {
			p.busy(p.flcAccess)
			p.eng.After(p.flcAccess, p.stepFn)
		}

	case OpAcquire:
		if p.statsOn {
			p.Stats.Acquires++
		}
		p.blockStart = p.eng.Now()
		p.mem.Acquire(op.Addr, p.acquireDoneFn)

	case OpRelease:
		if p.statsOn {
			p.Stats.Releases++
		}
		p.blockStart = p.eng.Now()
		if p.mem.Release(op.Addr, p.releaseDoneFn) {
			p.busy(p.flcAccess)
			p.eng.After(p.flcAccess, p.stepFn)
		}

	case OpBarrier:
		if p.statsOn {
			p.Stats.Barriers++
		}
		p.blockStart = p.eng.Now()
		p.mem.Barrier(op.Bar, p.barrierDoneFn)

	case OpStatsOn:
		if p.StatsOnHook != nil {
			p.StatsOnHook()
		}
		p.eng.After(0, p.stepFn)
	}
}

// readDone runs when a missing block reaches the FLC; the fill completes
// before the load retires. Everything beyond the 1-pclock access is read
// stall.
func (p *Processor) readDone() {
	elapsed := p.eng.Now() - p.blockStart + p.flcFill
	p.busy(p.flcAccess)
	if p.statsOn {
		p.Stats.ReadStall += int64(elapsed - p.flcAccess)
	}
	p.stall("read", p.blockStart)
	p.eng.After(p.flcFill, p.stepFn)
}

// writeAccepted runs when a full FLWB finally takes a write (release
// consistency); the wait was write stall.
func (p *Processor) writeAccepted() {
	if p.statsOn {
		p.Stats.WriteStall += int64(p.eng.Now() - p.blockStart)
	}
	p.stall("write", p.blockStart)
	p.busy(p.flcAccess)
	p.eng.After(p.flcAccess, p.stepFn)
}

// writePerformed runs when a write is globally performed (sequential
// consistency).
func (p *Processor) writePerformed() {
	elapsed := p.eng.Now() - p.blockStart
	p.busy(p.flcAccess)
	if p.statsOn {
		p.Stats.WriteStall += int64(elapsed)
	}
	p.stall("write", p.blockStart)
	p.eng.After(p.flcAccess, p.stepFn)
}

func (p *Processor) acquireDone() { p.syncDone(&p.Stats.AcquireStall, "acquire") }
func (p *Processor) releaseDone() { p.syncDone(&p.Stats.ReleaseStall, "release") }
func (p *Processor) barrierDone() { p.syncDone(&p.Stats.BarrierStall, "barrier") }

// syncDone ends a synchronization stall of the given kind, charging it to
// *stall, and retires the operation at once.
func (p *Processor) syncDone(stall *int64, kind string) {
	if p.statsOn {
		*stall += int64(p.eng.Now() - p.blockStart)
	}
	p.stall(kind, p.blockStart)
	p.eng.After(0, p.stepFn)
}
