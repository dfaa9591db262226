package ccsim

import (
	"testing"

	"ccsim/internal/fault"
	"ccsim/internal/proc"
	"ccsim/internal/trace"
	"ccsim/internal/workload"
)

// sendEvent and deliverEvent return the trace events core.System records
// when it sends and delivers a message of type what on block from src to
// dst at time at.
func sendEvent(at int64, what string, block uint64, src, dst int) trace.Event {
	return trace.Event{At: at, Kind: trace.MsgSend, What: what, Block: block, Node: src, Peer: dst, Note: "excl"}
}

func deliverEvent(at int64, what string, block uint64, src, dst int) trace.Event {
	e := sendEvent(at, what, block, src, dst)
	e.Kind = trace.MsgDeliver
	return e
}

// TestFaultTailKeepsNewest: once the ring has wrapped, it keeps the newest
// tailDepth messages, oldest first.
func TestFaultTailKeepsNewest(t *testing.T) {
	var tail msgTail
	const n = 3*tailDepth + 5
	for i := 0; i < n; i++ {
		tail.Record(sendEvent(int64(i), "ReadReq", 1, 0, 1))
	}
	got := tail.records()
	if len(got) != tailDepth {
		t.Fatalf("tail keeps %d records, want %d", len(got), tailDepth)
	}
	for i, r := range got {
		if want := int64(n - tailDepth + i); r.At != want {
			t.Fatalf("tail[%d].At = %d, want %d (newest %d, oldest first)", i, r.At, want, tailDepth)
		}
	}
}

// TestFaultTailKeepsAllUntilWrapped: an empty ring has no records, and one
// that has not wrapped keeps every message, oldest first.
func TestFaultTailKeepsAllUntilWrapped(t *testing.T) {
	var tail msgTail
	if got := tail.records(); got != nil {
		t.Fatalf("empty tail = %v, want nil", got)
	}
	for i := 0; i < tailDepth; i++ {
		tail.Record(sendEvent(int64(i), "ReadReq", 1, 0, 1))
	}
	got := tail.records()
	if len(got) != tailDepth {
		t.Fatalf("tail keeps %d records, want all %d", len(got), tailDepth)
	}
	for i, r := range got {
		if r.At != int64(i) {
			t.Fatalf("tail[%d].At = %d, want %d (oldest first)", i, r.At, i)
		}
	}
}

// TestFaultTailCountsMessages: the count covers every send and delivery
// and nothing else; directory transitions, fills and evictions pass the
// ring by.
func TestFaultTailCountsMessages(t *testing.T) {
	var tail msgTail
	var msgs uint64
	for i := 0; i < 2*tailDepth; i++ {
		at := int64(i)
		tail.Record(sendEvent(at, "OwnReq", 2, 1, 0))
		tail.Record(trace.Event{At: at, Kind: trace.DirTransition, What: "C->M", Block: 2, Node: 0, Peer: -1})
		tail.Record(deliverEvent(at, "OwnReq", 2, 1, 0))
		tail.Record(trace.Event{At: at, Kind: trace.CacheFill, What: "dirty", Block: 2, Node: 1, Peer: -1})
		tail.Record(trace.Event{At: at, Kind: trace.CacheEvict, What: "inv", Block: 3, Node: 2, Peer: -1})
		msgs += 2
	}
	if tail.seen != msgs {
		t.Fatalf("tail counted %d events, want the %d sends and deliveries", tail.seen, msgs)
	}
	for _, r := range tail.records() {
		if r.Kind != "OwnReq" {
			t.Fatalf("tail kept a %q event: %+v", r.Kind, r)
		}
	}
}

// TestFaultTailDeliverIsRecv: a send keeps its event's fields as the dump
// prints them, and a delivery is written "recv".
func TestFaultTailDeliverIsRecv(t *testing.T) {
	var tail msgTail
	tail.Record(sendEvent(10, "Inv", 7, 3, 5))
	tail.Record(deliverEvent(64, "Inv", 7, 3, 5))
	want := []fault.Record{
		{At: 10, Op: "send", Kind: "Inv", Block: 7, Src: 3, Dst: 5},
		{At: 64, Op: "recv", Kind: "Inv", Block: 7, Src: 3, Dst: 5},
	}
	got := tail.records()
	if len(got) != len(want) {
		t.Fatalf("tail = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tail[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFaultTailRecordZeroAllocs: recording an event allocates nothing, a
// message or any other kind.
func TestFaultTailRecordZeroAllocs(t *testing.T) {
	var tail msgTail
	msg := deliverEvent(1, "ReadReply", 9, 0, 1)
	dir := trace.Event{At: 1, Kind: trace.DirTransition, What: "M->C", Block: 9, Peer: -1}
	if n := testing.AllocsPerRun(1000, func() {
		tail.Record(msg)
		tail.Record(dir)
	}); n != 0 {
		t.Fatalf("Record allocates %v times per call pair, want 0", n)
	}
}

// cancelStream fires cancel as it hands out operation at of s.
type cancelStream struct {
	s      proc.Stream
	n, at  int
	cancel *Cancel
}

func (c *cancelStream) Next() (proc.Op, bool) {
	if c.n == c.at {
		c.cancel.Cancel()
	}
	c.n++
	return c.s.Next()
}

// TestFaultCanceledRunIsNotReplayed: a cancelled run's streams are read
// once, by the run itself, and never asked for again, while a run that
// hits its event ceiling asks for them once more, for its replay.
func TestFaultCanceledRunIsNotReplayed(t *testing.T) {
	for _, c := range []struct {
		kind      string
		cancelAt  int
		maxEvents uint64
		replays   int
	}{
		{FaultCanceled, 300, 0, 0},
		{FaultMaxEvents, -1, 15_000, 1},
	} {
		cfg := DefaultConfig()
		cfg.Workload, cfg.Procs, cfg.Scale = "mp3d", 4, 0.05
		cfg.MaxEvents = c.maxEvents
		cfg.Cancel = &Cancel{}
		streams, err := workload.Streams(cfg.Workload, cfg.Procs, cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		streams[0] = &cancelStream{s: streams[0], at: c.cancelAt, cancel: cfg.Cancel}
		asked := 0
		_, err = runStreams(cfg, streams, func() []proc.Stream {
			asked++
			again, _ := workload.Streams(cfg.Workload, cfg.Procs, cfg.Scale)
			return again
		})
		f, ok := AsFault(err)
		if !ok || f.Kind != c.kind {
			t.Fatalf("err = %v, want a %s fault", err, c.kind)
		}
		if asked != c.replays {
			t.Errorf("%s fault: streams asked for again %d times, want %d", c.kind, asked, c.replays)
		}
	}
}
