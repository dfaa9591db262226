package ccsim

import (
	"fmt"
	"math"

	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// OpKind enumerates the operations a custom workload stream may issue.
type OpKind int

const (
	// Busy models local computation (and private references, which the
	// methodology treats as first-level cache hits) for Cycles pclocks.
	Busy OpKind = iota
	// Read is a shared-data load; the processor blocks until the data
	// reaches its first-level cache.
	Read
	// Write is a shared-data store; under release consistency it is
	// buffered, under sequential consistency the processor stalls until it
	// is globally performed.
	Write
	// Acquire obtains the queue-based lock whose variable lives at Addr.
	Acquire
	// Release releases that lock (after all earlier writes have performed).
	Release
	// Barrier joins the machine-wide barrier identified by Bar; every
	// processor must arrive at the same barriers in the same order.
	Barrier
	// StatsOn starts the measured section; every stream must emit it
	// exactly once, before its other operations.
	StatsOn
)

// Op is one operation of a custom workload.
type Op struct {
	Kind   OpKind
	Addr   uint64 // byte address for Read/Write/Acquire/Release
	Cycles int64  // duration for Busy
	Bar    int    // barrier identity for Barrier
}

// Stream produces one processor's operations. Next is called again only
// after the previous operation completed in simulated time, so generators
// may depend on simulation progress.
type Stream interface {
	Next() (Op, bool)
}

// Ops returns a Stream replaying a fixed operation slice.
func Ops(ops ...Op) Stream { return &sliceStream{ops: ops} }

type sliceStream struct {
	ops []Op
	i   int
}

func (s *sliceStream) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// toProc converts op to the internal operation after checking the fields
// its kind uses: the kind itself, busy cycles (>= 0) and the barrier id
// (from 0 to math.MaxInt32, the range a protocol message carries), the
// same checks ParseTrace makes on a trace file. The public and
// internal kinds have the same values, so a valid kind converts as is.
func (op Op) toProc() (proc.Op, error) {
	switch {
	case op.Kind < Busy || op.Kind > StatsOn:
		return proc.Op{}, fmt.Errorf("unknown kind %d", op.Kind)
	case op.Kind == Busy && op.Cycles < 0:
		return proc.Op{}, fmt.Errorf("busy cycles %d < 0", op.Cycles)
	case op.Kind == Barrier && op.Bar < 0:
		return proc.Op{}, fmt.Errorf("barrier id %d < 0", op.Bar)
	case op.Kind == Barrier && op.Bar > math.MaxInt32:
		return proc.Op{}, fmt.Errorf("barrier id %d > %d", op.Bar, math.MaxInt32)
	}
	return proc.Op{
		Kind:   proc.OpKind(op.Kind),
		Addr:   memsys.Addr(op.Addr),
		Cycles: op.Cycles,
		Bar:    op.Bar,
	}, nil
}

// opError carries the error of a custom operation the machine cannot run
// out of the simulation: the stream adapter panics with it, which ends the
// run at once, and runStreams recovers it and returns the error.
type opError struct{ err error }

// streamAdapter converts processor proc's public Stream to the internal
// one. It keeps what a replay of the run needs to hand out the same
// operations again: an Ops stream's slice and the run's start in it, or
// else every operation it handed out.
type streamAdapter struct {
	s    Stream
	proc int
	n    int // operations read so far

	ops  *sliceStream // s, when it is an Ops stream
	from int          // ops.i when the run started
	log  []Op         // what Next handed out, when s is not an Ops stream
}

func newStreamAdapter(s Stream, proc int) *streamAdapter {
	a := &streamAdapter{s: s, proc: proc}
	if ss, ok := s.(*sliceStream); ok {
		a.ops, a.from = ss, ss.i
	}
	return a
}

func (a *streamAdapter) Next() (proc.Op, bool) {
	op, ok := a.s.Next()
	if !ok {
		return proc.Op{}, false
	}
	pop, err := op.toProc()
	if err != nil {
		panic(opError{fmt.Errorf("ccsim: processor %d, operation %d: %w", a.proc, a.n, err)})
	}
	if a.ops == nil {
		a.log = append(a.log, op)
	}
	a.n++
	return pop, true
}

// again returns an adapter that hands out this one's operations again from
// the first: an Ops stream restarts where the run started in its slice,
// copying nothing, and any other stream replays what it handed out.
func (a *streamAdapter) again() *streamAdapter {
	if a.ops != nil {
		return newStreamAdapter(Ops(a.ops.ops[a.from:]...), a.proc)
	}
	return newStreamAdapter(Ops(a.log...), a.proc)
}
