// Package telemetry is the simulator's observability layer: causal
// transaction spans that decompose each coherence transaction's latency into
// protocol phases, processor stall intervals, directory-transition instants,
// and a time-series sampler of resource utilization. Everything is collected
// in simulated time (pclocks) from deterministic event ordering, so two
// identical runs produce identical telemetry byte for byte.
//
// The collector keeps each record as a fixed-size value of plain fields: a
// span in 64 bytes with its first eight phase marks inline, each as a 32-bit
// offset from the span's start, a stall or an instant with its kind or name
// as a small code, a snapshot's sampled values in one flat slab, and the
// completion order as a list of span indexes. The records sit in
// append-only chunks of 256 and never move, so growing a list copies
// nothing, and since they hold no pointers the garbage collector never
// scans them. WriteTimeline and PhaseTotals read the records where they
// lie, and Spans builds its values only when it is called.
//
// A nil *Collector is valid everywhere and records nothing: the simulator
// core calls straight into nil-receiver methods on its hot paths, which keeps
// the disabled path free of allocations and branches beyond the nil check.
package telemetry

import (
	"math"

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
func (s *Span) Durations() [NumPhases]int64 { return durations(s.Start, s.Marks) }

// durations splits the time from start to the last of marks by the phase
// each mark ends.
func durations(start int64, marks []Mark) [NumPhases]int64 {
	var d [NumPhases]int64
	prev := start
	for _, m := range marks {
		d[m.Phase] += m.At - prev
		prev = m.At
	}
	return d
}

// Dominant returns the phase holding the largest share of the span's
// latency.
func (s *Span) Dominant() Phase { return dominant(s.Durations()) }

// dominant returns the phase with the largest duration in d, the earliest
// of any that tie.
func dominant(d [NumPhases]int64) Phase {
	best := Phase(0)
	for p := Phase(1); p < NumPhases; p++ {
		if d[p] > d[best] {
			best = p
		}
	}
	return best
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

// chunkLen is the number of records in each chunk of a chunk list, and
// inlineMarks the number of marks a span keeps in its own record; any
// beyond go to a side list. In the five kernels under all eight extension
// sets at 16 processors and scale 0.25, each of 186,532 spans carried 5, 6
// or 8 marks, never more. A span's phases pack into one uint32 at
// phaseBits each, which holds NumPhases.
const (
	chunkLen    = 256
	inlineMarks = 8
	phaseBits   = 32 / inlineMarks
)

// chunks is an append-only list of records kept in chunks of chunkLen. A
// record never moves once added, so a pointer to it stays good while the
// list grows, and growing copies no record. The collector stores only
// types that hold no pointers, so the garbage collector never scans a
// chunk.
type chunks[T any] struct {
	c []*[chunkLen]T
	n int
}

// add appends a zero record and returns it.
func (l *chunks[T]) add() *T {
	if l.n%chunkLen == 0 {
		l.c = append(l.c, new([chunkLen]T))
	}
	r := &l.c[l.n/chunkLen][l.n%chunkLen]
	l.n++
	return r
}

// at returns record i, which must be below the list's length.
func (l *chunks[T]) at(i int) *T { return &l.c[i/chunkLen][i%chunkLen] }

// spanRec is a span as the collector keeps it, in 64 bytes. Its ID is its
// index plus 1, and it ends at its last mark, the fill End records. A mark
// more than math.MaxUint32 pclocks after start does not fit inline, so it
// goes to the side list, and every later mark of the span follows it there
// to keep the marks in order.
type spanRec struct {
	block uint64
	start int64
	at    [inlineMarks]uint32 // pclocks from start to each inline mark
	node  int32
	more  int32  // 1 + the side-list index of the span's next mark, or 0
	phase uint32 // inline mark i's phase in bits [phaseBits*i, phaseBits*(i+1))
	n     uint8  // inline marks used
	kind  SpanKind
	ended bool
}

// inline returns inline mark i of s.
func (s *spanRec) inline(i uint8) Mark {
	ph := Phase(s.phase >> (phaseBits * i) & (1<<phaseBits - 1))
	return Mark{Phase: ph, At: s.start + int64(s.at[i])}
}

// markRec is one mark past a span's inline ones, chained from its span.
type markRec struct {
	at    int64
	next  int32 // 1 + the side-list index of the span's next mark, or 0
	phase Phase
}

// stallRec and instantRec name their kind by its index in Collector.names.
type stallRec struct {
	start, end int64
	node       int32
	kind       uint32
}

type instantRec struct {
	block uint64
	at    int64
	node  int32
	name  uint32
}

// Collector accumulates one run's telemetry. Construct with New; the zero
// value is not usable, but a nil *Collector is a valid no-op sink.
type Collector struct {
	opts Options

	spans   chunks[spanRec] // in Begin order: span id is spans.at(id-1)
	marks   chunks[markRec] // marks past a span's inline ones
	done    chunks[int32]   // span indexes in completion order
	dropped uint64

	stalls   chunks[stallRec]
	instants chunks[instantRec]
	names    []string // stall kinds and instant names, by code

	watches []*resourceWatch
	gauges  []gaugeWatch
	samples chunks[sampleRec]
	values  chunks[int64] // every sample's values, one after another
	eng     *sim.Engine   // the engine the sampler ticks on, set by StartSampler
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
	if c.spans.n >= c.opts.MaxSpans {
		c.dropped++
		return 0
	}
	*c.spans.add() = spanRec{block: block, start: at, node: int32(node), kind: kind}
	return uint64(c.spans.n)
}

// lookup returns open span id, or nil for a zero, unknown or ended ID.
func (c *Collector) lookup(id uint64) *spanRec {
	if c == nil || id == 0 || id > uint64(c.spans.n) {
		return nil
	}
	if s := c.spans.at(int(id - 1)); !s.ended {
		return s
	}
	return nil
}

// Mark timestamps the end of a phase inside span id. Unknown, zero or
// ended IDs are ignored.
func (c *Collector) Mark(id uint64, ph Phase, at int64) {
	if s := c.lookup(id); s != nil {
		c.mark(s, ph, at)
	}
}

// mark appends a mark to span s: in its record while there is room and
// its offset fits, then at the end of its chain in the side list.
func (c *Collector) mark(s *spanRec, ph Phase, at int64) {
	if off := uint64(at - s.start); s.n < inlineMarks && s.more == 0 && off <= math.MaxUint32 {
		s.at[s.n] = uint32(off)
		s.phase |= uint32(ph) << (phaseBits * s.n)
		s.n++
		return
	}
	link := &s.more
	for *link != 0 {
		link = &c.marks.at(int(*link - 1)).next
	}
	*c.marks.add() = markRec{at: at, phase: ph}
	*link = int32(c.marks.n)
}

// appendMarks appends span s's marks to dst in the order they were made.
func (c *Collector) appendMarks(dst []Mark, s *spanRec) []Mark {
	for i := uint8(0); i < s.n; i++ {
		dst = append(dst, s.inline(i))
	}
	for x := s.more; x != 0; {
		m := c.marks.at(int(x - 1))
		dst = append(dst, Mark{Phase: m.phase, At: m.at})
		x = m.next
	}
	return dst
}

// End closes span id at the given time, labelling the final segment as
// PhaseFill. Unknown, zero or ended IDs are ignored.
func (c *Collector) End(id uint64, at int64) {
	s := c.lookup(id)
	if s == nil {
		return
	}
	c.mark(s, PhaseFill, at)
	s.ended = true
	*c.done.add() = int32(id - 1)
}

// code returns name's index in c.names, adding it on its first use. A run
// uses a handful of names, each a literal at its call site, so the scan is
// short and its comparisons mostly match by pointer.
func (c *Collector) code(name string) uint32 {
	for i, n := range c.names {
		if n == name {
			return uint32(i)
		}
	}
	c.names = append(c.names, name)
	return uint32(len(c.names) - 1)
}

// StallInterval records one processor-blocked interval. Empty intervals are
// dropped.
func (c *Collector) StallInterval(node int, kind string, start, end int64) {
	if c == nil || end <= start || c.stalls.n >= c.opts.MaxStalls {
		return
	}
	*c.stalls.add() = stallRec{start: start, end: end, node: int32(node), kind: c.code(kind)}
}

// RecordInstant records a point event on a node's timeline.
func (c *Collector) RecordInstant(node int, name string, block uint64, at int64) {
	if c == nil || c.instants.n >= c.opts.MaxInstants {
		return
	}
	*c.instants.add() = instantRec{block: block, at: at, node: int32(node), name: c.code(name)}
}

// Spans returns the completed spans in completion order, built on each
// call from the collector's records.
func (c *Collector) Spans() []*Span {
	if c == nil || c.done.n == 0 {
		return nil
	}
	vals := make([]Span, c.done.n)
	out := make([]*Span, c.done.n)
	for i := range vals {
		idx := int(*c.done.at(i))
		s := c.spans.at(idx)
		marks := c.appendMarks(make([]Mark, 0, s.n), s)
		vals[i] = Span{ID: uint64(idx) + 1, Node: int(s.node), Block: s.block, Kind: s.kind,
			Start: s.start, End: marks[len(marks)-1].At, Marks: marks}
		out[i] = &vals[i]
	}
	return out
}

// KeptSpans reports how many completed spans the collector holds: the
// length of Spans, without building them.
func (c *Collector) KeptSpans() int {
	if c == nil {
		return 0
	}
	return c.done.n
}

// DroppedSpans reports how many spans the MaxSpans cap discarded.
func (c *Collector) DroppedSpans() uint64 {
	if c == nil {
		return 0
	}
	return c.dropped
}

// PhaseTotals sums the per-phase durations of all completed spans of the
// given kind, keyed by phase name. Phases that never occurred are omitted.
func (c *Collector) PhaseTotals(kind SpanKind) map[string]int64 {
	if c == nil {
		return nil
	}
	var tot [NumPhases]int64
	any := false
	var marks []Mark
	for i := 0; i < c.spans.n; i++ {
		s := c.spans.at(i)
		if !s.ended || s.kind != kind {
			continue
		}
		any = true
		marks = c.appendMarks(marks[:0], s)
		d := durations(s.start, marks)
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
