// Package trace provides structured event tracing for the coherence
// protocol: every message send and delivery, directory transition, cache
// fill and eviction can be filtered by block and streamed as one text line
// per event. Traces are the primary debugging tool for protocol work — the
// ABA races fixed during this reproduction were all found by reading them —
// and they feed the cmd/ccsim -trace flag.
//
// Rendering is off the simulation goroutine. Record only copies a matching
// event into the current batch; a renderer goroutine the Tracer owns turns
// each full batch into text and writes it with one Write call, so the
// writer sees the trace a batch at a time, from that one goroutine, never
// concurrently. Close writes the last, partial batch and returns once the
// renderer has exited: after it, no Write is in progress or still to come.
package trace

import (
	"fmt"
	"io"
	"strconv"
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

// batchLen is the number of events Record hands the renderer at a time. A
// hand-over is one channel send and receive, a few microseconds when it
// wakes the renderer, so a batch must amortize it over many events; a
// tracer's pooled memory is two batches of 72-byte events plus the text of
// one, so a batch must stay small next to a run's heap.
const batchLen = 512

// buffers is the memory one tracer works in: the two batches Record and
// the renderer pass back and forth, and the renderer's text. It is reused
// across tracers, so a sweep of traced runs allocates it about once.
type buffers struct {
	batches [2][]Event
	text    []byte
}

var pool = sync.Pool{New: func() any {
	return &buffers{
		batches: [2][]Event{make([]Event, 0, batchLen), make([]Event, 0, batchLen)},
		// Lines average about 45 bytes; a longer batch grows the buffer
		// once and the pool keeps the larger one.
		text: make([]byte, 0, 64*batchLen),
	}
}}

// Tracer streams matching events to a writer. Record and Close are called
// from one goroutine, the simulation's; the writer is called from the
// tracer's renderer goroutine.
type Tracer struct {
	filter Filter
	out    io.Writer
	bufs   *buffers
	cur    []Event       // the batch Record fills
	full   chan []Event  // filled batches, to the renderer
	free   chan []Event  // rendered batches, back to Record
	done   chan struct{} // closed when the renderer has exited
	err    error         // a writer panic; set by the renderer, read after done
}

// New returns a tracer that writes every event passing filter to out, one
// line per event, and starts its renderer. Call Close when the run ends.
func New(out io.Writer, filter Filter) *Tracer {
	b := pool.Get().(*buffers)
	t := &Tracer{
		filter: filter,
		out:    out,
		bufs:   b,
		cur:    b.batches[0],
		full:   make(chan []Event),
		free:   make(chan []Event, len(b.batches)), // holds both at Close
		done:   make(chan struct{}),
	}
	t.free <- b.batches[1]
	go t.render()
	return t
}

// Record copies e into the current batch if it passes the filter. When the
// batch is full it goes to the renderer, and Record waits for the batch
// the renderer finished before it: a slow writer slows the run, and no
// event is dropped. Record allocates nothing.
func (t *Tracer) Record(e Event) {
	if !t.filter.match(e) {
		return
	}
	t.cur = append(t.cur, e)
	if len(t.cur) == batchLen {
		t.full <- t.cur
		t.cur = <-t.free
	}
}

// Close hands the renderer the partial batch, waits until it has written
// everything and exited, and returns the panic of a writer that panicked
// as an error. A failed write is the writer's to report: the CLI's
// buffered trace file returns it from Flush. Close is called once; Record
// must not be called after it.
func (t *Tracer) Close() error {
	t.full <- t.cur
	close(t.full)
	<-t.done
	t.bufs.batches = [2][]Event{<-t.free, <-t.free}
	pool.Put(t.bufs)
	t.bufs, t.cur = nil, nil
	return t.err
}

// render is the renderer goroutine: it formats each batch into one buffer
// and writes it with one Write. After a writer panic it only hands batches
// back, so the run goes on to its end and Close reports the panic.
func (t *Tracer) render() {
	defer close(t.done)
	text := t.bufs.text
	for b := range t.full {
		if t.err == nil && len(b) > 0 {
			text = text[:0]
			for i := range b {
				text = append(b[i].appendTo(text), '\n')
			}
			t.write(text)
		}
		t.free <- b[:0]
	}
	t.bufs.text = text
}

// write passes text to the writer, turning a panic into t.err. A returned
// error is the writer's to report, as Close says.
func (t *Tracer) write(text []byte) {
	defer func() {
		if v := recover(); v != nil {
			t.err = fmt.Errorf("trace: writer panicked: %v", v)
		}
	}()
	t.out.Write(text)
}
