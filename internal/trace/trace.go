// Package trace provides structured event tracing for the coherence
// protocol: every message send and delivery, directory transitions, and
// processor stalls can be captured, filtered and rendered. Traces are the
// primary debugging tool for protocol work — the ABA races fixed during
// this reproduction were all found by reading them — and they feed the
// cmd/ccsim -trace flag.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Kind classifies trace events.
type Kind int

const (
	// MsgSend: a protocol message entered its source node's bus.
	MsgSend Kind = iota
	// MsgDeliver: a protocol message reached its destination controller.
	MsgDeliver
	// DirTransition: a directory entry changed stable state.
	DirTransition
	// CacheFill: a line was installed in an SLC.
	CacheFill
	// CacheEvict: a line left an SLC (replacement or invalidation).
	CacheEvict
	// ProcStall: a processor began waiting on the memory system.
	ProcStall
	nKinds
)

var kindNames = [nKinds]string{
	"send", "deliver", "dir", "fill", "evict", "stall",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "?"
	}
	return kindNames[k]
}

// Event is one trace record. Fields are generic so the tracer stays
// decoupled from the protocol package: What carries the message type or
// transition name, Block the address, Node the acting node, Peer the other
// endpoint (-1 if none).
type Event struct {
	At    int64 // pclocks
	Kind  Kind
	What  string
	Block uint64
	Node  int
	Peer  int
	Note  string
}

// String renders the event as one line.
func (e Event) String() string { return string(e.appendTo(nil)) }

// appendTo appends the event's line to b: the fields of the format
// "T%-8d %-7s n%d%-4s %-10s blk%d%s" with the peer as "->N" and the note
// after a space, built without fmt so a streaming tracer allocates nothing
// per event.
func (e Event) appendTo(b []byte) []byte {
	b = append(b, 'T')
	start := len(b)
	b = pad(strconv.AppendInt(b, e.At, 10), start, 8)
	b = append(b, ' ')
	start = len(b)
	b = pad(append(b, e.Kind.String()...), start, 7)
	b = strconv.AppendInt(append(b, " n"...), int64(e.Node), 10)
	start = len(b)
	if e.Peer >= 0 {
		b = strconv.AppendInt(append(b, "->"...), int64(e.Peer), 10)
	}
	b = pad(b, start, 4)
	b = append(b, ' ')
	start = len(b)
	b = pad(append(b, e.What...), start, 10)
	b = strconv.AppendUint(append(b, " blk"...), e.Block, 10)
	if e.Note != "" {
		b = append(append(b, ' '), e.Note...)
	}
	return b
}

// pad appends spaces until b[start:] is width runes wide, as fmt pads a
// left-justified field.
func pad(b []byte, start, width int) []byte {
	for n := utf8.RuneCount(b[start:]); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// Filter selects which events a tracer records. The zero value records
// everything.
type Filter struct {
	Kinds  []Kind   // empty = all kinds
	Blocks []uint64 // empty = all blocks
	Nodes  []int    // empty = all nodes
}

func (f *Filter) match(e Event) bool {
	if len(f.Kinds) > 0 && !containsKind(f.Kinds, e.Kind) {
		return false
	}
	if len(f.Blocks) > 0 && !containsU64(f.Blocks, e.Block) {
		return false
	}
	if len(f.Nodes) > 0 && !containsInt(f.Nodes, e.Node) {
		return false
	}
	return true
}

func containsKind(s []Kind, v Kind) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsU64(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Tracer collects events. It is safe for use from a single simulation
// goroutine; the mutex only guards concurrent readers (e.g. a test
// inspecting while the simulation runs).
type Tracer struct {
	mu     sync.Mutex
	filter Filter
	out    io.Writer // nil: buffer only
	line   []byte    // reused rendering buffer for out
	events []Event
	limit  int // 0 = unbounded
	drops  uint64
}

// New returns a tracer that buffers matching events and, if out is
// non-nil, streams them there as they happen.
func New(out io.Writer, filter Filter) *Tracer {
	return &Tracer{out: out, filter: filter}
}

// SetLimit bounds the in-memory buffer; once full, older events are kept
// and newer ones counted as drops (the stream output is unaffected).
func (t *Tracer) SetLimit(n int) { t.limit = n }

// Record adds an event if it passes the filter.
func (t *Tracer) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.filter.match(e) {
		return
	}
	if t.out != nil {
		// One Write per event. A failed write is the writer's to report:
		// the CLI's buffered trace file returns it from Flush.
		t.line = append(e.appendTo(t.line[:0]), '\n')
		t.out.Write(t.line)
	}
	if t.limit > 0 && len(t.events) >= t.limit {
		t.drops++
		return
	}
	t.events = append(t.events, e)
}

// Events returns a copy of the buffered events.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Drops returns how many events the buffer limit discarded.
func (t *Tracer) Drops() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Summary aggregates the buffered events into per-What counts, rendered
// most-frequent first. Handy for a quick view of protocol activity.
func (t *Tracer) Summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := map[string]int{}
	for _, e := range t.events {
		counts[e.Kind.String()+"/"+e.What]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%8d  %s\n", counts[k], k)
	}
	return b.String()
}

// BlockHistory returns the buffered events for one block, in order — the
// view protocol debugging wants.
func (t *Tracer) BlockHistory(block uint64) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, e := range t.events {
		if e.Block == block {
			out = append(out, e)
		}
	}
	return out
}
