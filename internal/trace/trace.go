// Package trace provides structured event tracing for the coherence
// protocol: every message send and delivery, directory transition, cache
// fill and eviction can be filtered by block and streamed as one text line
// per event. Traces are the primary debugging tool for protocol work — the
// ABA races fixed during this reproduction were all found by reading them —
// and they feed the cmd/ccsim -trace flag.
package trace

import (
	"io"
	"strconv"
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
	nKinds
)

var kindNames = [nKinds]string{
	"send", "deliver", "dir", "fill", "evict",
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
	Blocks []uint64 // empty = all blocks
}

func (f *Filter) match(e Event) bool {
	if len(f.Blocks) == 0 {
		return true
	}
	for _, b := range f.Blocks {
		if b == e.Block {
			return true
		}
	}
	return false
}

// Tracer streams matching events to a writer as they happen. It is used
// from the single simulation goroutine.
type Tracer struct {
	filter Filter
	out    io.Writer
	line   []byte // reused rendering buffer
}

// New returns a tracer that writes every event passing filter to out, one
// line per event.
func New(out io.Writer, filter Filter) *Tracer {
	return &Tracer{out: out, filter: filter}
}

// Record writes e to the stream if it passes the filter. It allocates
// nothing once the line buffer has grown. A failed write is the writer's
// to report: the CLI's buffered trace file returns it from Flush.
func (t *Tracer) Record(e Event) {
	if !t.filter.match(e) {
		return
	}
	t.line = append(e.appendTo(t.line[:0]), '\n')
	t.out.Write(t.line)
}
