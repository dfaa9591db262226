package proc

import (
	"testing"

	"ccsim/internal/memsys"
	"ccsim/internal/sim"
)

// fakeMem is a scriptable Memory for processor-level tests.
type fakeMem struct {
	eng *sim.Engine

	readHit   bool
	readDelay sim.Time

	writeAccept bool
	writeDelay  sim.Time // to accepted (RC) or performed (SC)

	acqDelay sim.Time
	relDelay sim.Time
	relNow   bool
	barDelay sim.Time
}

// resume is the event that runs a processor continuation the fake memory
// holds; passing the continuation as the argument keeps scheduling it
// allocation-free.
func resume(a any) { a.(func())() }

func (f *fakeMem) Read(a memsys.Addr, unblock func()) bool {
	if f.readHit {
		return true
	}
	f.eng.AfterCall(f.readDelay, resume, unblock)
	return false
}

func (f *fakeMem) Write(a memsys.Addr, accepted, performed func()) bool {
	if performed != nil {
		f.eng.AfterCall(f.writeDelay, resume, performed)
	}
	if f.writeAccept {
		return true
	}
	if accepted != nil {
		f.eng.AfterCall(f.writeDelay, resume, accepted)
	}
	return false
}

func (f *fakeMem) Acquire(a memsys.Addr, unblock func()) {
	f.eng.AfterCall(f.acqDelay, resume, unblock)
}

func (f *fakeMem) Release(a memsys.Addr, unblock func()) bool {
	if f.relNow {
		return true
	}
	f.eng.AfterCall(f.relDelay, resume, unblock)
	return false
}

func (f *fakeMem) Barrier(id int, unblock func()) { f.eng.AfterCall(f.barDelay, resume, unblock) }

func runProc(t *testing.T, sc bool, mem *fakeMem, ops ...Op) *Processor {
	t.Helper()
	eng := mem.eng
	p := New(eng, mem, NewSliceStream(ops...), Config{SC: sc, FLCAccess: 1, FLCFill: 3})
	p.SetStatsEnabled(true)
	p.Start()
	eng.Run()
	if !p.Done() {
		t.Fatal("processor did not finish")
	}
	return p
}

func TestBusyAccumulates(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine()}
	p := runProc(t, false, mem, Op{Kind: OpBusy, Cycles: 100}, Op{Kind: OpBusy, Cycles: 23})
	if p.Stats.Busy != 123 {
		t.Fatalf("Busy = %d, want 123", p.Stats.Busy)
	}
	if p.DoneTime() != 123 {
		t.Fatalf("DoneTime = %d", p.DoneTime())
	}
}

func TestReadHitCostsOneCycle(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), readHit: true}
	p := runProc(t, false, mem, Op{Kind: OpRead})
	if p.Stats.Busy != 1 || p.Stats.ReadStall != 0 {
		t.Fatalf("busy=%d readStall=%d", p.Stats.Busy, p.Stats.ReadStall)
	}
	if p.Stats.Reads != 1 {
		t.Fatalf("Reads = %d", p.Stats.Reads)
	}
}

func TestReadMissStall(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), readDelay: 30}
	p := runProc(t, false, mem, Op{Kind: OpRead})
	// Elapsed 30 + 3 FLC fill; 1 cycle is busy, the rest is read stall.
	if p.Stats.ReadStall != 32 {
		t.Fatalf("ReadStall = %d, want 32", p.Stats.ReadStall)
	}
	if p.Stats.Busy != 1 {
		t.Fatalf("Busy = %d, want 1", p.Stats.Busy)
	}
	if p.DoneTime() != 33 {
		t.Fatalf("DoneTime = %d, want 33 (30 miss + 3 fill)", p.DoneTime())
	}
}

func TestWriteRCBuffered(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), writeAccept: true}
	p := runProc(t, false, mem, Op{Kind: OpWrite})
	if p.Stats.WriteStall != 0 || p.Stats.Busy != 1 {
		t.Fatalf("busy=%d writeStall=%d", p.Stats.Busy, p.Stats.WriteStall)
	}
}

func TestWriteRCBufferFullStalls(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), writeAccept: false, writeDelay: 25}
	p := runProc(t, false, mem, Op{Kind: OpWrite})
	if p.Stats.WriteStall != 25 {
		t.Fatalf("WriteStall = %d, want 25", p.Stats.WriteStall)
	}
}

func TestWriteSCStallsUntilPerformed(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), writeDelay: 200}
	p := runProc(t, true, mem, Op{Kind: OpWrite})
	if p.Stats.WriteStall != 200 {
		t.Fatalf("WriteStall = %d, want 200", p.Stats.WriteStall)
	}
}

func TestAcquireStall(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), acqDelay: 120}
	p := runProc(t, false, mem, Op{Kind: OpAcquire})
	if p.Stats.AcquireStall != 120 || p.Stats.Acquires != 1 {
		t.Fatalf("AcquireStall = %d Acquires = %d", p.Stats.AcquireStall, p.Stats.Acquires)
	}
}

func TestReleaseRCIsFree(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), relNow: true}
	p := runProc(t, false, mem, Op{Kind: OpRelease})
	if p.Stats.ReleaseStall != 0 {
		t.Fatalf("ReleaseStall = %d, want 0 under RC", p.Stats.ReleaseStall)
	}
}

func TestReleaseSCStalls(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), relDelay: 77}
	p := runProc(t, true, mem, Op{Kind: OpRelease})
	if p.Stats.ReleaseStall != 77 {
		t.Fatalf("ReleaseStall = %d, want 77", p.Stats.ReleaseStall)
	}
}

func TestBarrierWaitCountsAsBarrierStall(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), barDelay: 500}
	p := runProc(t, false, mem, Op{Kind: OpBarrier, Bar: 1})
	if p.Stats.BarrierStall != 500 || p.Stats.Barriers != 1 {
		t.Fatalf("BarrierStall = %d Barriers = %d", p.Stats.BarrierStall, p.Stats.Barriers)
	}
}

func TestStatsGating(t *testing.T) {
	mem := &fakeMem{eng: sim.NewEngine(), readHit: true}
	eng := mem.eng
	hooked := false
	p := New(eng, mem, NewSliceStream(
		Op{Kind: OpBusy, Cycles: 50}, // before StatsOn: not counted
		Op{Kind: OpStatsOn},
		Op{Kind: OpBusy, Cycles: 7},
	), Config{FLCAccess: 1, FLCFill: 3})
	p.StatsOnHook = func() {
		hooked = true
		p.SetStatsEnabled(true)
	}
	p.Start()
	eng.Run()
	if !hooked {
		t.Fatal("StatsOnHook not called")
	}
	if p.Stats.Busy != 7 {
		t.Fatalf("Busy = %d, want 7 (pre-StatsOn work excluded)", p.Stats.Busy)
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream(Op{Kind: OpBusy, Cycles: 1}, Op{Kind: OpRead})
	op, ok := s.Next()
	if !ok || op.Kind != OpBusy {
		t.Fatal("first op wrong")
	}
	op, ok = s.Next()
	if !ok || op.Kind != OpRead {
		t.Fatal("second op wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not end")
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	s := FuncStream(func() (Op, bool) {
		if n >= 2 {
			return Op{}, false
		}
		n++
		return Op{Kind: OpBusy, Cycles: int64(n)}, true
	})
	total := int64(0)
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		total += op.Cycles
	}
	if total != 3 {
		t.Fatalf("total = %d", total)
	}
}

// loopStream repeats ops forever without allocating.
type loopStream struct {
	ops []Op
	i   int
}

func (s *loopStream) Next() (Op, bool) {
	op := s.ops[s.i%len(s.ops)]
	s.i++
	return op, true
}

// TestProcessorZeroAllocs pins the processor's share of the hot path: once
// the engine is warm, issuing and completing any operation — hit or miss,
// buffered or stalled, under either consistency model — allocates nothing.
func TestProcessorZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   bool
		mem  fakeMem
		op   Op
	}{
		{"read-hit", false, fakeMem{readHit: true}, Op{Kind: OpRead}},
		{"read-miss", false, fakeMem{readDelay: 20}, Op{Kind: OpRead}},
		{"write-buffered", false, fakeMem{writeAccept: true}, Op{Kind: OpWrite}},
		{"write-flwb-full", false, fakeMem{writeDelay: 5}, Op{Kind: OpWrite}},
		{"write-sc", true, fakeMem{writeDelay: 9}, Op{Kind: OpWrite}},
		{"acquire", false, fakeMem{acqDelay: 7}, Op{Kind: OpAcquire}},
		{"release-rc", false, fakeMem{relNow: true}, Op{Kind: OpRelease}},
		{"release-sc", true, fakeMem{relDelay: 7}, Op{Kind: OpRelease}},
		{"barrier", false, fakeMem{barDelay: 11}, Op{Kind: OpBarrier, Bar: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			mem := tc.mem
			mem.eng = eng
			p := New(eng, &mem, &loopStream{ops: []Op{tc.op, {Kind: OpBusy, Cycles: 2}}},
				Config{SC: tc.sc, FLCAccess: 1, FLCFill: 3})
			p.SetStatsEnabled(true)
			p.Start()
			eng.RunUntil(1000)
			if n := testing.AllocsPerRun(100, func() { eng.RunUntil(eng.Now() + 200) }); n != 0 {
				t.Fatalf("%v allocs per 200 pclocks, want 0", n)
			}
			if p.Stats.Busy == 0 {
				t.Fatal("processor made no progress")
			}
		})
	}
}
