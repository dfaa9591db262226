package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func ev(at int64, k Kind, what string, blk uint64, node int) Event {
	return Event{At: at, Kind: k, What: what, Block: blk, Node: node, Peer: -1}
}

func TestTracerBuffersAndStreams(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Filter{})
	tr.Record(ev(10, MsgSend, "ReadReq", 5, 0))
	tr.Record(ev(20, MsgDeliver, "ReadReq", 5, 1))
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	out := buf.String()
	if !strings.Contains(out, "ReadReq") || !strings.Contains(out, "T10") {
		t.Fatalf("stream output wrong:\n%s", out)
	}
	evs := tr.Events()
	if evs[0].At != 10 || evs[1].At != 20 {
		t.Fatal("buffered order wrong")
	}
}

func TestTracerKindFilter(t *testing.T) {
	tr := New(nil, Filter{Kinds: []Kind{DirTransition}})
	tr.Record(ev(1, MsgSend, "x", 0, 0))
	tr.Record(ev(2, DirTransition, "grant", 0, 0))
	if tr.Len() != 1 || tr.Events()[0].Kind != DirTransition {
		t.Fatalf("filter failed: %v", tr.Events())
	}
}

func TestTracerBlockAndNodeFilter(t *testing.T) {
	tr := New(nil, Filter{Blocks: []uint64{7}, Nodes: []int{2}})
	tr.Record(ev(1, MsgSend, "a", 7, 2)) // match
	tr.Record(ev(2, MsgSend, "b", 7, 3)) // wrong node
	tr.Record(ev(3, MsgSend, "c", 8, 2)) // wrong block
	if tr.Len() != 1 || tr.Events()[0].What != "a" {
		t.Fatalf("filter failed: %v", tr.Events())
	}
}

func TestTracerLimitDrops(t *testing.T) {
	tr := New(nil, Filter{})
	tr.SetLimit(2)
	for i := 0; i < 5; i++ {
		tr.Record(ev(int64(i), MsgSend, "x", 0, 0))
	}
	if tr.Len() != 2 || tr.Drops() != 3 {
		t.Fatalf("len=%d drops=%d", tr.Len(), tr.Drops())
	}
}

func TestSummaryOrdersByCount(t *testing.T) {
	tr := New(nil, Filter{})
	for i := 0; i < 3; i++ {
		tr.Record(ev(int64(i), MsgSend, "ReadReq", 0, 0))
	}
	tr.Record(ev(9, MsgSend, "Inv", 0, 0))
	s := tr.Summary()
	if !strings.Contains(s, "3  send/ReadReq") {
		t.Fatalf("summary wrong:\n%s", s)
	}
	if strings.Index(s, "ReadReq") > strings.Index(s, "Inv") {
		t.Fatalf("summary not frequency-ordered:\n%s", s)
	}
}

func TestBlockHistory(t *testing.T) {
	tr := New(nil, Filter{})
	tr.Record(ev(1, MsgSend, "a", 10, 0))
	tr.Record(ev(2, MsgSend, "b", 11, 0))
	tr.Record(ev(3, MsgSend, "c", 10, 0))
	h := tr.BlockHistory(10)
	if len(h) != 2 || h[0].What != "a" || h[1].What != "c" {
		t.Fatalf("history wrong: %v", h)
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
		{At: 7, Kind: CacheFill, What: "S", Block: 2, Node: 0, Peer: -1},                                   // no peer, empty note
		{At: 1, Kind: DirTransition, What: "migratory-revert", Block: 3, Node: 15, Peer: -1},               // What past its pad
		{At: 5, Kind: Kind(99), What: "x", Block: 0, Node: 2, Peer: 0},                                     // unknown kind
		{At: -5, Kind: Kind(-1), What: "", Block: 1, Node: -1, Peer: 12345},                                // negative fields, wide peer
		{At: 1<<62 + 3, Kind: ProcStall, What: "read", Block: 1<<64 - 1, Node: 3, Peer: 10, Note: "to=10"}, // large At and Block
		{At: 123456789, Kind: MsgDeliver, What: "héllo wörld", Block: 77, Node: 4, Peer: 5, Note: "ü"},     // multi-byte runes pad by rune
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
	tr.SetLimit(1)
	e := Event{At: 1234, Kind: MsgSend, What: "ReadReq", Block: 99, Node: 3, Peer: 4, Note: "prefetch"}
	tr.Record(e)
	if n := testing.AllocsPerRun(100, func() { tr.Record(e) }); n != 0 {
		t.Fatalf("streaming Record allocates %v times per event, want 0", n)
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
		tr := New(nil, Filter{})
		before := tr.Len()
		tr.Record(Event{At: at, Kind: Kind(int(k) % int(nKinds)), Block: blk, Node: int(node), Peer: -1})
		return tr.Len() == before+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
