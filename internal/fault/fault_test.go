package fault

import (
	"strings"
	"testing"
)

func TestErrorSummary(t *testing.T) {
	f := &SimFault{
		Kind: KindPanic, Time: 1234, Component: "cache 3",
		MsgKind: "ReadReply", Block: 42, HasBlock: true,
		Message: "fill without mshr",
	}
	got := f.Error()
	for _, want := range []string{"panic", "t=1234", "cache 3", "ReadReply", "block 42", "fill without mshr"} {
		if !strings.Contains(got, want) {
			t.Errorf("Error() = %q, missing %q", got, want)
		}
	}
}

func TestDumpSections(t *testing.T) {
	f := &SimFault{
		Kind: KindDeadlock, Time: 99, Steps: 1000,
		Message: "queue empty, 2 processors blocked",
		Snapshot: &Snapshot{
			Caches: []CacheState{{Node: 1, SLWBUsed: 2, Pending: []string{"block 7: read (1 readers)"}}},
			Dir: &DirState{Block: 7, Home: 0, State: "MODIFIED", Owner: 1,
				Presence: 0b10, Busy: true, Txn: "fwd", Deferred: 3},
			Resources:    []ResourceState{{Name: "bus1", Depth: 2}},
			Blocked:      []string{"proc 0 waiting for lock 9"},
			Messages:     []Record{{At: 80, Op: "send", Kind: "ReadReq", Block: 7, Src: 0, Dst: 1}},
			MessagesSeen: 500,
		},
	}
	var b strings.Builder
	f.Dump(&b)
	got := b.String()
	for _, want := range []string{
		"SIMULATION FAULT (deadlock)", "99 pclocks", "1000 events",
		"cache 1", "block 7: read", "MODIFIED owner 1", "BUSY(fwd)", "deferred 3",
		"bus1: depth 2", "proc 0 waiting for lock 9",
		"last 1 of 500 messages", "ReadReq", "END FAULT",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Dump missing %q in:\n%s", want, got)
		}
	}
}
