// Package telemetry is the simulator's observability layer: causal
// transaction spans that decompose each coherence transaction's latency into
// protocol phases, processor stall intervals, directory-transition instants,
// and a time-series sampler of resource utilization. Everything is collected
// in simulated time (pclocks) from deterministic event ordering, so two
// identical runs produce identical telemetry byte for byte.
//
// A nil *Collector is valid everywhere and records nothing: the simulator
// core calls straight into nil-receiver methods on its hot paths, which keeps
// the disabled path free of allocations and branches beyond the nil check.
package telemetry

import (
	"ccsim/internal/sim"
)

// SpanKind identifies what a transaction span measures.
type SpanKind uint8

const (
	// SpanRead is a demand read miss, from SLC lookup to FLC fill.
	SpanRead SpanKind = iota
	// SpanPrefetch is a prefetcher-issued fetch.
	SpanPrefetch
	// SpanOwnership is a write's ownership acquisition.
	SpanOwnership
	// SpanUpdate is a competitive-update (combined write) round.
	SpanUpdate
)

func (k SpanKind) String() string {
	switch k {
	case SpanRead:
		return "read-miss"
	case SpanPrefetch:
		return "prefetch"
	case SpanOwnership:
		return "ownership"
	case SpanUpdate:
		return "update"
	}
	return "?"
}

// Phase labels one segment of a transaction's timeline. A mark names the
// phase that ends at it, so consecutive marks partition the span into
// contiguous segments: the per-phase durations always sum exactly to the
// span's end-to-end latency.
type Phase uint8

const (
	// PhaseRequest: requester bus + network transit of the request to home.
	PhaseRequest Phase = iota
	// PhaseDirWait: queueing behind a busy directory entry at home.
	PhaseDirWait
	// PhaseMemory: a memory/directory access at home.
	PhaseMemory
	// PhaseForward: home-to-dirty-owner transit of a forwarded request.
	PhaseForward
	// PhaseOwner: the owner's lookup plus its reply's transit back to home.
	PhaseOwner
	// PhaseGather: an invalidation/update fan-out round trip at home.
	PhaseGather
	// PhaseReply: home-to-requester transit of the reply.
	PhaseReply
	// PhaseFill: SLC handler occupancy and fill at the requester.
	PhaseFill
	// NumPhases bounds the enum.
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseRequest:
		return "request"
	case PhaseDirWait:
		return "dir-wait"
	case PhaseMemory:
		return "memory"
	case PhaseForward:
		return "forward"
	case PhaseOwner:
		return "owner"
	case PhaseGather:
		return "gather"
	case PhaseReply:
		return "reply"
	case PhaseFill:
		return "fill"
	}
	return "?"
}

// Mark is one per-hop timestamp inside a span: the phase that ended at At.
type Mark struct {
	Phase Phase
	At    int64
}

// Span is one completed coherence transaction.
type Span struct {
	ID    uint64
	Node  int // requesting node
	Block uint64
	Kind  SpanKind
	Start int64
	End   int64
	Marks []Mark
}

// Latency returns the span's end-to-end duration in pclocks.
func (s *Span) Latency() int64 { return s.End - s.Start }

// Durations returns the per-phase time decomposition. The entries sum
// exactly to Latency().
func (s *Span) Durations() [NumPhases]int64 {
	var d [NumPhases]int64
	prev := s.Start
	for _, m := range s.Marks {
		d[m.Phase] += m.At - prev
		prev = m.At
	}
	return d
}

// Dominant returns the phase holding the largest share of the span's
// latency.
func (s *Span) Dominant() Phase {
	d := s.Durations()
	best := Phase(0)
	for p := Phase(1); p < NumPhases; p++ {
		if d[p] > d[best] {
			best = p
		}
	}
	return best
}

// Stall is one interval a processor spent blocked on the memory system.
type Stall struct {
	Node  int
	Kind  string // read, write, acquire, barrier, release
	Start int64
	End   int64
}

// Instant is a point event on a node's timeline (directory transitions).
type Instant struct {
	Node  int
	Name  string
	Block uint64
	At    int64
}

// Options bounds the collector's memory. Zero values select the defaults.
type Options struct {
	MaxSpans    int      // completed spans kept (default 50000)
	MaxStalls   int      // stall intervals kept (default 100000)
	MaxInstants int      // instants kept (default 100000)
	MaxSamples  int      // sampler snapshots kept (default 4096)
	SampleEvery sim.Time // sampling period in pclocks (default 1000)
}

// DefaultOptions returns the default bounds.
func DefaultOptions() Options {
	return Options{
		MaxSpans:    50000,
		MaxStalls:   100000,
		MaxInstants: 100000,
		MaxSamples:  4096,
		SampleEvery: 1000,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxSpans <= 0 {
		o.MaxSpans = d.MaxSpans
	}
	if o.MaxStalls <= 0 {
		o.MaxStalls = d.MaxStalls
	}
	if o.MaxInstants <= 0 {
		o.MaxInstants = d.MaxInstants
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = d.MaxSamples
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = d.SampleEvery
	}
	return o
}

// Slab sizes for spans. Every span's first inlineMarks marks share one
// slab with its neighbours'; a span with more marks appends past its slot
// into a slice of its own. In the five kernels under all eight extension
// sets at 16 processors and scale 0.25, each of 186,532 spans carried 5, 6
// or 8 marks, never more.
const (
	slabSpans   = 256
	inlineMarks = 8
)

// Collector accumulates one run's telemetry. Construct with New; the zero
// value is not usable, but a nil *Collector is a valid no-op sink.
type Collector struct {
	opts Options

	// Span IDs are dense from 1: open[id-1] is span id while it is open,
	// and nil once it has ended, so len(open) counts every span kept.
	open    []*Span
	spans   []*Span
	dropped uint64

	// The unused tails of the current span and mark slabs.
	spanSlab []Span
	markSlab []Mark

	stalls   []Stall
	instants []Instant

	watches []*resourceWatch
	gauges  []gaugeWatch
	samples []Sample
	eng     *sim.Engine // the engine the sampler ticks on, set by StartSampler
	lastAt  sim.Time
}

// New returns an empty collector with the given bounds.
func New(opts Options) *Collector {
	return &Collector{opts: opts.withDefaults()}
}

// Options returns the collector's bounds, defaults filled in: a collector
// built from them records a run the same way, sampler ticks included.
func (c *Collector) Options() Options { return c.opts }

// Begin opens a span and returns its transaction ID, or 0 when the
// collector is nil or full. ID 0 is the universal "untracked" transaction:
// Mark and End ignore it.
func (c *Collector) Begin(node int, block uint64, kind SpanKind, at int64) uint64 {
	if c == nil {
		return 0
	}
	if len(c.open) >= c.opts.MaxSpans {
		c.dropped++
		return 0
	}
	if len(c.spanSlab) == 0 {
		c.spanSlab = make([]Span, slabSpans)
		c.markSlab = make([]Mark, slabSpans*inlineMarks)
	}
	s := &c.spanSlab[0]
	c.spanSlab = c.spanSlab[1:]
	id := uint64(len(c.open)) + 1
	*s = Span{ID: id, Node: node, Block: block, Kind: kind, Start: at,
		Marks: c.markSlab[:0:inlineMarks]}
	c.markSlab = c.markSlab[inlineMarks:]
	c.open = append(c.open, s)
	return id
}

// lookup returns open span id, or nil for a zero, unknown or ended ID.
func (c *Collector) lookup(id uint64) *Span {
	if c == nil || id == 0 || id > uint64(len(c.open)) {
		return nil
	}
	return c.open[id-1]
}

// Mark timestamps the end of a phase inside span id. Unknown, zero or
// ended IDs are ignored.
func (c *Collector) Mark(id uint64, ph Phase, at int64) {
	if s := c.lookup(id); s != nil {
		s.Marks = append(s.Marks, Mark{Phase: ph, At: at})
	}
}

// End closes span id at the given time, labelling the final segment as
// PhaseFill. Unknown, zero or ended IDs are ignored.
func (c *Collector) End(id uint64, at int64) {
	s := c.lookup(id)
	if s == nil {
		return
	}
	c.open[id-1] = nil
	s.Marks = append(s.Marks, Mark{Phase: PhaseFill, At: at})
	s.End = at
	c.spans = append(c.spans, s)
}

// StallInterval records one processor-blocked interval. Empty intervals are
// dropped.
func (c *Collector) StallInterval(node int, kind string, start, end int64) {
	if c == nil || end <= start || len(c.stalls) >= c.opts.MaxStalls {
		return
	}
	c.stalls = append(c.stalls, Stall{Node: node, Kind: kind, Start: start, End: end})
}

// RecordInstant records a point event on a node's timeline.
func (c *Collector) RecordInstant(node int, name string, block uint64, at int64) {
	if c == nil || len(c.instants) >= c.opts.MaxInstants {
		return
	}
	c.instants = append(c.instants, Instant{Node: node, Name: name, Block: block, At: at})
}

// Spans returns the completed spans in completion order.
func (c *Collector) Spans() []*Span {
	if c == nil {
		return nil
	}
	return c.spans
}

// DroppedSpans reports how many spans the MaxSpans cap discarded.
func (c *Collector) DroppedSpans() uint64 {
	if c == nil {
		return 0
	}
	return c.dropped
}

// Stalls returns the recorded processor stall intervals.
func (c *Collector) Stalls() []Stall {
	if c == nil {
		return nil
	}
	return c.stalls
}

// Instants returns the recorded point events.
func (c *Collector) Instants() []Instant {
	if c == nil {
		return nil
	}
	return c.instants
}

// PhaseTotals sums the per-phase durations of all completed spans of the
// given kind, keyed by phase name. Phases that never occurred are omitted.
func (c *Collector) PhaseTotals(kind SpanKind) map[string]int64 {
	if c == nil || len(c.spans) == 0 {
		return nil
	}
	var tot [NumPhases]int64
	any := false
	for _, s := range c.spans {
		if s.Kind != kind {
			continue
		}
		any = true
		d := s.Durations()
		for p := Phase(0); p < NumPhases; p++ {
			tot[p] += d[p]
		}
	}
	if !any {
		return nil
	}
	out := make(map[string]int64)
	for p := Phase(0); p < NumPhases; p++ {
		if tot[p] != 0 {
			out[p.String()] = tot[p]
		}
	}
	return out
}
