package ccsim_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"ccsim"
)

func drainStream(t *testing.T, s ccsim.Stream) []ccsim.Op {
	t.Helper()
	var ops []ccsim.Op
	for {
		op, ok := s.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

func TestParseTraceBasic(t *testing.T) {
	in := `
# two processors handing a block around
proc 0
stats
w 0x1000
c 50
b 0
proc 1
stats
b 0
r 4096
`
	streams, err := ccsim.ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 {
		t.Fatalf("%d streams", len(streams))
	}
	ops0 := drainStream(t, streams[0])
	if ops0[0].Kind != ccsim.StatsOn {
		t.Fatal("no leading StatsOn")
	}
	if ops0[1].Kind != ccsim.Write || ops0[1].Addr != 0x1000 {
		t.Fatalf("op 1 = %+v", ops0[1])
	}
	if ops0[2].Kind != ccsim.Busy || ops0[2].Cycles != 50 {
		t.Fatalf("op 2 = %+v", ops0[2])
	}
	ops1 := drainStream(t, streams[1])
	if ops1[2].Kind != ccsim.Read || ops1[2].Addr != 4096 {
		t.Fatalf("proc 1 read = %+v", ops1[2])
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		in, errHas string
	}{
		{"r 0x10\n", "before any proc"},
		{"proc\n", "proc needs an id"},
		{"proc -1\n", "bad processor id"},
		{"proc 0\nproc 0\n", "duplicate section"},
		{"proc 0\nr zz\n", "bad address"},
		{"proc 0\nc -5\n", "bad cycle count"},
		{"proc 0\nb x\n", "bad barrier id"},
		{"proc 0\nb 2147483648\n", "bad barrier id"},
		{"proc 0\nfoo 1\n", "unknown operation"},
		{"proc 0\nr 1 2\n", "want: <op> <arg>"},
		{"proc 1\nr 1\n", "missing section for processor 0"},
		{"# nothing\n", "no processor sections"},
	}
	for _, c := range cases {
		_, err := ccsim.ParseTrace(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("input %q: err = %v, want containing %q", c.in, err, c.errHas)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	procs := [][]ccsim.Op{
		{
			{Kind: ccsim.Write, Addr: 64},
			{Kind: ccsim.Busy, Cycles: 10},
			{Kind: ccsim.Acquire, Addr: 1 << 20},
			{Kind: ccsim.Release, Addr: 1 << 20},
			{Kind: ccsim.Barrier, Bar: 0},
		},
		{
			{Kind: ccsim.Barrier, Bar: 0},
			{Kind: ccsim.Read, Addr: 64},
		},
	}
	var buf bytes.Buffer
	if err := ccsim.WriteTrace(&buf, procs); err != nil {
		t.Fatal(err)
	}
	streams, err := ccsim.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for p := range procs {
		got := drainStream(t, streams[p])
		if got[0].Kind != ccsim.StatsOn {
			t.Fatal("missing StatsOn")
		}
		got = got[1:]
		if len(got) != len(procs[p]) {
			t.Fatalf("proc %d: %d ops, want %d", p, len(got), len(procs[p]))
		}
		for i := range got {
			if got[i] != procs[p][i] {
				t.Fatalf("proc %d op %d: %+v != %+v", p, i, got[i], procs[p][i])
			}
		}
	}
}

// Property: any generated op mix survives a write/parse round trip.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		K uint8
		A uint32
		C uint16
	}) bool {
		ops := make([]ccsim.Op, 0, len(raw))
		for _, r := range raw {
			switch r.K % 6 {
			case 0:
				ops = append(ops, ccsim.Op{Kind: ccsim.Read, Addr: uint64(r.A)})
			case 1:
				ops = append(ops, ccsim.Op{Kind: ccsim.Write, Addr: uint64(r.A)})
			case 2:
				ops = append(ops, ccsim.Op{Kind: ccsim.Busy, Cycles: int64(r.C)})
			case 3:
				ops = append(ops, ccsim.Op{Kind: ccsim.Acquire, Addr: uint64(r.A)})
			case 4:
				ops = append(ops, ccsim.Op{Kind: ccsim.Release, Addr: uint64(r.A)})
			case 5:
				ops = append(ops, ccsim.Op{Kind: ccsim.Barrier, Bar: int(r.C)})
			}
		}
		var buf bytes.Buffer
		if err := ccsim.WriteTrace(&buf, [][]ccsim.Op{ops}); err != nil {
			return false
		}
		streams, err := ccsim.ParseTrace(&buf)
		if err != nil || len(streams) != 1 {
			return false
		}
		got := []ccsim.Op{}
		for {
			op, ok := streams[0].Next()
			if !ok {
				break
			}
			got = append(got, op)
		}
		if len(got) != len(ops)+1 || got[0].Kind != ccsim.StatsOn {
			return false
		}
		for i := range ops {
			if got[i+1] != ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceEndToEndSimulation(t *testing.T) {
	// A handwritten trace of a producer and consumer must simulate
	// coherently.
	in := `
proc 0
w 0x0
b 0
proc 1
b 0
r 0x0
`
	streams, err := ccsim.ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ccsim.DefaultConfig()
	cfg.Procs = 2
	r, err := ccsim.RunStreams(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reads != 1 || r.Writes != 1 || r.ColdMisses != 1 {
		t.Fatalf("result %+v", r)
	}
}
