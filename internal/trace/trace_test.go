package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ev(at int64, k Kind, what string, blk uint64, node int) Event {
	return Event{At: at, Kind: k, What: what, Block: blk, Node: node, Peer: -1}
}

// streamed returns the lines a tracer wrote to buf.
func streamed(buf *bytes.Buffer) []string {
	if buf.Len() == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

func TestTracerBuffersAndStreams(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Filter{})
	tr.Record(ev(10, MsgSend, "ReadReq", 5, 0))
	tr.Record(ev(20, MsgDeliver, "ReadReq", 5, 1))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := streamed(&buf)
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "T10 ") || !strings.HasPrefix(lines[1], "T20 ") ||
		!strings.Contains(lines[0], "ReadReq") {
		t.Fatalf("stream output wrong or out of order:\n%s", buf.String())
	}
}

// TestTracerBlockAndNodeFilter: the block filter drops other blocks' events
// and keeps every node's events on the traced block.
func TestTracerBlockAndNodeFilter(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Filter{Blocks: []uint64{7}})
	tr.Record(ev(1, MsgSend, "a", 7, 2)) // match
	tr.Record(ev(2, MsgSend, "b", 7, 3)) // match: any node
	tr.Record(ev(3, MsgSend, "c", 8, 2)) // wrong block
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := streamed(&buf)
	if len(lines) != 2 || !strings.Contains(lines[0], " a ") || !strings.Contains(lines[1], " b ") {
		t.Fatalf("filter failed:\n%s", buf.String())
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 42, Kind: MsgSend, What: "OwnReq", Block: 9, Node: 1, Peer: 3, Note: "excl"}
	s := e.String()
	for _, want := range []string{"T42", "send", "n1", "->3", "OwnReq", "blk9", "excl"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	noPeer := ev(1, CacheFill, "S", 2, 0)
	if strings.Contains(noPeer.String(), "->") {
		t.Fatal("peerless event rendered a peer")
	}
}

// fmtLine renders an event with fmt: the reference the allocation-free
// renderer must match byte for byte.
func fmtLine(e Event) string {
	peer := ""
	if e.Peer >= 0 {
		peer = fmt.Sprintf("->%d", e.Peer)
	}
	note := ""
	if e.Note != "" {
		note = " " + e.Note
	}
	return fmt.Sprintf("T%-8d %-7s n%d%-4s %-10s blk%d%s\n",
		e.At, e.Kind, e.Node, peer, e.What, e.Block, note)
}

func TestStreamMatchesFmt(t *testing.T) {
	events := []Event{
		{At: 42, Kind: MsgSend, What: "OwnReq", Block: 9, Node: 1, Peer: 3, Note: "excl"},
		{At: 7, Kind: CacheFill, What: "S", Block: 2, Node: 0, Peer: -1},                                    // no peer, empty note
		{At: 1, Kind: DirTransition, What: "migratory-revert", Block: 3, Node: 15, Peer: -1},                // What past its pad
		{At: 5, Kind: Kind(99), What: "x", Block: 0, Node: 2, Peer: 0},                                      // unknown kind
		{At: -5, Kind: Kind(-1), What: "", Block: 1, Node: -1, Peer: 12345},                                 // negative fields, wide peer
		{At: 1<<62 + 3, Kind: CacheEvict, What: "read", Block: 1<<64 - 1, Node: 3, Peer: 10, Note: "to=10"}, // large At and Block
		{At: 123456789, Kind: MsgDeliver, What: "héllo wörld", Block: 77, Node: 4, Peer: 5, Note: "ü"},      // multi-byte runes pad by rune
	}
	var buf bytes.Buffer
	tr := New(&buf, Filter{})
	var want strings.Builder
	for _, e := range events {
		tr.Record(e)
		want.WriteString(fmtLine(e))
		if got := e.String() + "\n"; got != fmtLine(e) {
			t.Errorf("String() = %q, want %q", got, fmtLine(e))
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("stream =\n%s\nwant\n%s", buf.String(), want.String())
	}
	prop := func(at int64, k int8, what string, blk uint64, node, peer int16, note string) bool {
		e := Event{At: at, Kind: Kind(k), What: what, Block: blk, Node: int(node), Peer: int(peer), Note: note}
		return e.String()+"\n" == fmtLine(e)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRecordAllocatesNothing(t *testing.T) {
	tr := New(io.Discard, Filter{})
	defer tr.Close()
	e := Event{At: 1234, Kind: MsgSend, What: "ReadReq", Block: 99, Node: 3, Peer: 4, Note: "prefetch"}
	tr.Record(e)
	// Several batches, so the hand-overs to the renderer are counted too.
	if n := testing.AllocsPerRun(3*batchLen, func() { tr.Record(e) }); n != 0 {
		t.Fatalf("streaming Record allocates %v times per event, want 0", n)
	}
}

// batchWriter records the lines of each Write. A delay makes it a slow
// writer, which Record must wait for instead of dropping events.
type batchWriter struct {
	delay  time.Duration
	writes [][]string
	panic  int // panic on this Write, counting from 1; 0 = never
}

func (w *batchWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	w.writes = append(w.writes, strings.Split(strings.TrimSuffix(string(p), "\n"), "\n"))
	if len(w.writes) == w.panic {
		panic("disk on fire")
	}
	return len(p), nil
}

// TestTracerWritesOneBatchPerWrite: a slow writer gets every line in
// order, one full batch per Write and the partial batch from Close, and no
// empty Write when the events fill whole batches.
func TestTracerWritesOneBatchPerWrite(t *testing.T) {
	for _, n := range []int{0, 1, batchLen, 3*batchLen + 7} {
		w := &batchWriter{delay: time.Millisecond}
		tr := New(w, Filter{})
		for i := 0; i < n; i++ {
			tr.Record(ev(int64(i), MsgSend, "ReadReq", 1, 0))
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		next := 0
		for i, lines := range w.writes {
			if want := min(batchLen, n-next); len(lines) != want {
				t.Fatalf("%d events: write %d has %d lines, want %d", n, i, len(lines), want)
			}
			for _, l := range lines {
				if want := fmt.Sprintf("T%-8d ", next); !strings.HasPrefix(l, want) {
					t.Fatalf("%d events: line %q, want prefix %q", n, l, want)
				}
				next++
			}
		}
		if next != n || len(w.writes) != (n+batchLen-1)/batchLen {
			t.Fatalf("%d events: %d lines in %d writes", n, next, len(w.writes))
		}
	}
}

// TestTracerWriterPanic: a writer that panics ends neither the renderer
// nor the recording goroutine. Record keeps taking events, the writer is
// not called again, and Close returns the panic as an error.
func TestTracerWriterPanic(t *testing.T) {
	w := &batchWriter{panic: 2}
	tr := New(w, Filter{})
	for i := 0; i < 5*batchLen; i++ {
		tr.Record(ev(int64(i), MsgSend, "ReadReq", 1, 0))
	}
	err := tr.Close()
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("Close = %v, want the writer's panic", err)
	}
	if len(w.writes) != 2 {
		t.Fatalf("writer called %d times, want 2: none after its panic", len(w.writes))
	}
}

func TestKindString(t *testing.T) {
	if MsgSend.String() != "send" || CacheEvict.String() != "evict" || Kind(99).String() != "?" {
		t.Fatal("kind names wrong")
	}
}

// Property: the zero filter matches every event.
func TestZeroFilterMatchesAll(t *testing.T) {
	f := func(at int64, k uint8, blk uint64, node int8) bool {
		var buf bytes.Buffer
		tr := New(&buf, Filter{})
		tr.Record(Event{At: at, Kind: Kind(int(k) % int(nKinds)), Block: blk, Node: int(node), Peer: -1})
		return tr.Close() == nil && len(streamed(&buf)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
