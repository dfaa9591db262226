package core

import (
	"reflect"
	"strings"
	"testing"

	"ccsim/internal/cache"
	"ccsim/internal/memsys"
	"ccsim/internal/sim"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Params)
		errHas string
	}{
		{func(p *Params) { p.Nodes = 0 }, "Nodes"},
		{func(p *Params) { p.Nodes = 65 }, "64-bit presence vector"},
		{func(p *Params) { p.FLCSets = 0 }, "FLCSets"},
		{func(p *Params) { p.SLCSets = -1 }, "SLCSets"},
		{func(p *Params) { p.FLWBEntries = 0 }, "write buffers"},
		{func(p *Params) { p.SLWBEntries = 0 }, "write buffers"},
		{func(p *Params) { p.CW = true; p.SC = true }, "sequential consistency"},
		{func(p *Params) { p.CW = true; p.CWThreshold = 0 }, "CW needs"},
		{func(p *Params) { p.CW = true; p.WriteCacheBlocks = 0 }, "CW needs"},
		{func(p *Params) { p.P = true; p.PrefetchMaxK = 0 }, "prefetch"},
		{func(p *Params) { p.P = true; p.PrefetchHighMark = 3; p.PrefetchLowMark = 5 }, "prefetch"},
	}
	for i, c := range cases {
		p := DefaultParams()
		c.mutate(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, c.errHas)
		}
	}
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestProtocolNameAllCombos(t *testing.T) {
	cases := []struct {
		p, m, cw, sc bool
		want         string
	}{
		{false, false, false, false, "BASIC"},
		{true, false, false, false, "P"},
		{false, true, false, false, "M"},
		{false, false, true, false, "CW"},
		{true, false, true, false, "P+CW"},
		{true, true, false, false, "P+M"},
		{false, true, true, false, "CW+M"},
		{true, true, true, false, "P+CW+M"},
		{false, false, false, true, "BASIC-SC"},
		{true, true, false, true, "P+M-SC"},
	}
	for _, c := range cases {
		p := DefaultParams()
		p.P, p.M, p.CW, p.SC = c.p, c.m, c.cw, c.sc
		if got := p.ProtocolName(); got != c.want {
			t.Errorf("ProtocolName = %q, want %q", got, c.want)
		}
	}
}

func TestCostTableContents(t *testing.T) {
	rows := CostTable(16)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.Contains(rows[2].MemoryBitsPerLine, "4 bits") {
		t.Errorf("M pointer for 16 nodes should be log2 16 = 4 bits: %q", rows[2].MemoryBitsPerLine)
	}
	if log2(1) != 0 || log2(2) != 1 || log2(16) != 4 || log2(17) != 5 {
		t.Error("log2 wrong")
	}
}

func TestMsgStringAndSizes(t *testing.T) {
	if MsgReadReq.String() != "ReadReq" || MsgBarGo.String() != "BarGo" {
		t.Error("message names wrong")
	}
	ctl := &Msg{Type: MsgInv}
	if ctl.Size() != 16 {
		t.Errorf("control size %d", ctl.Size())
	}
	data := &Msg{Type: MsgReadReply, Data: true}
	if data.Size() != 48 {
		t.Errorf("data size %d", data.Size())
	}
	upd := &Msg{Type: MsgUpdateReq, Mask: memsys.WordMask(0).Set(0).Set(3)}
	if upd.Size() != 16+8 {
		t.Errorf("update size %d", upd.Size())
	}
}

func TestPrefetchNackAblation(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.P = true
		p.PrefetchNackDirty = true
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Make b+1 dirty at node 2, then miss on b at node 0: the prefetch of
	// b+1 must be nacked, leaving node 2's copy untouched.
	write(t, eng, s, 2, b.Next(1).Addr())
	read(t, eng, s, 0, a)
	eng.Run()
	pf := s.Nodes[0].Cache.Prefetcher()
	if pf.Stats.Nacked != 1 {
		t.Fatalf("Nacked = %d, want 1", pf.Stats.Nacked)
	}
	if l := lineOf(s, 2, b.Next(1).Addr()); l == nil || l.State != cache.Dirty {
		t.Fatalf("owner's dirty copy disturbed: %+v", l)
	}
	if lineOf(s, 0, b.Next(1).Addr()) != nil {
		t.Fatal("nacked prefetch installed a line")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchToDirtyServedWithoutNackOption(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 2, b.Next(1).Addr())
	read(t, eng, s, 0, a)
	eng.Run()
	// Paper behavior: serviced four-hop; the owner is downgraded.
	if l := lineOf(s, 0, b.Next(1).Addr()); l == nil || !l.PrefetchBit {
		t.Fatalf("prefetch to dirty block not serviced: %+v", l)
	}
	if l := lineOf(s, 2, b.Next(1).Addr()); l == nil || l.State != cache.Shared {
		t.Fatalf("owner not downgraded: %+v", l)
	}
}

func TestNackWithMergedDemandReissues(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.P = true
		p.PrefetchNackDirty = true
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 2, b.Next(1).Addr())
	// Demand-read b (prefetches b+1, which will be nacked) and immediately
	// demand b+1 so it merges with the in-flight prefetch. The nack must
	// reissue a demand read, and the reader must still get data.
	done := 0
	s.Nodes[0].Cache.Read(a, func() { done++ })
	s.Nodes[0].Cache.Read(b.Next(1).Addr(), func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 reads completed", done)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSCReleaseAcknowledged(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.SC = true
		p.FLWBEntries = 1
	})
	lock := blockHomedAt(s, 2)
	acq, rel := false, false
	s.Nodes[0].Cache.Acquire(lock, func() { acq = true })
	eng.Run()
	if proceed := s.Nodes[0].Cache.Release(lock, func() { rel = true }); proceed {
		t.Fatal("SC release proceeded without ack")
	}
	eng.Run()
	if !acq || !rel {
		t.Fatalf("acq=%v rel=%v", acq, rel)
	}
}

func TestWritebackStampRejectsStale(t *testing.T) {
	// Exercise the grant-generation check directly: a writeback whose
	// stamp predates the current grant must be dropped.
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	b := memsys.BlockOf(a)
	write(t, eng, s, 1, a) // node 1 owner, grants=1
	home := s.Nodes[0].Home
	e, _ := home.Entry(b)
	if !e.Modified || e.Owner != 1 {
		t.Fatalf("setup: %+v", e)
	}
	// A forged stale writeback (stamp 0 < grants 1). Register the pending
	// entry first so the acknowledgment has a receiver.
	s.Nodes[1].Cache.wb = append(s.Nodes[1].Cache.wb, wbEntry{block: b})
	home.Handle(&Msg{Type: MsgWBReq, Block: b, Src: 1, Dst: 0, Data: true, Stamp: 0})
	eng.Run()
	if home.StaleWritebacks != 1 {
		t.Fatalf("StaleWritebacks = %d", home.StaleWritebacks)
	}
	e, _ = home.Entry(b)
	if !e.Modified {
		t.Fatal("stale writeback cleared ownership")
	}
}

// ownerReadRace sets up node 1's side of a read that overtook its
// writeback: node 1 owned block b, homed at node 0 (one grant), its line
// is gone, wbs writebacks of b are in flight and a read miss on b is
// pending. served reports whether the read has completed.
func ownerReadRace(t *testing.T, wbs int) (eng *sim.Engine, s *System, b memsys.Block, served *bool) {
	t.Helper()
	eng, s = testSystem(t, nil)
	a := blockHomedAt(s, 0)
	b = memsys.BlockOf(a)
	write(t, eng, s, 1, a)
	c := s.Nodes[1].Cache
	c.slc.Invalidate(b)
	for i := 0; i < wbs; i++ {
		c.wb = append(c.wb, wbEntry{block: b})
	}
	served = new(bool)
	ms := c.newMSHR(b, mshrRead)
	ms.readers = append(ms.readers, readerWait{fn: func() { *served = true }})
	return eng, s, b, served
}

// landWriteback delivers node 1's current writeback of b (stamp 1) and
// checks that the home accepts it and then serves the parked read from
// memory: the entry ends CLEAN with presence {1} and nothing queued, and
// the machine quiesces with its invariants intact.
func landWriteback(t *testing.T, eng *sim.Engine, s *System, b memsys.Block, served *bool) {
	t.Helper()
	home := s.Nodes[0].Home
	wbs := home.Writebacks
	home.Handle(&Msg{Type: MsgWBReq, Block: b, Src: 1, Dst: 0, Data: true, Stamp: 1})
	eng.Run()
	if home.Writebacks != wbs+1 {
		t.Fatalf("writeback not accepted: %d accepted, %d stale", home.Writebacks, home.StaleWritebacks)
	}
	if !*served {
		t.Fatal("parked read never served")
	}
	if e, _ := home.Entry(b); e.Modified || e.Busy || e.Presence != bit(1) {
		t.Fatalf("entry after the writeback and read: %+v, want CLEAN with presence {1}", e)
	}
	if d := s.dirSnapshot(b); d.Parked != 0 || d.Deferred != 0 {
		t.Fatalf("requests left queued: %+v", d)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !s.Quiesced() {
		t.Fatal("machine not quiesced")
	}
}

// TestOwnerReadParksUntilWriteback drives the home's parking path: node 1
// victimized its dirty copy and missed on the block again, and its read
// request overtook its writeback. The home must park the read (the
// registered owner cannot be asking for data it holds), accept the
// writeback when it lands, then serve the parked read from memory.
func TestOwnerReadParksUntilWriteback(t *testing.T) {
	eng, s, b, served := ownerReadRace(t, 1)
	s.Nodes[0].Home.Handle(&Msg{Type: MsgReadReq, Block: b, Src: 1, Dst: 0})
	eng.Run()
	d := s.dirSnapshot(b)
	if d == nil || d.Parked != 1 || d.Busy || d.Deferred != 0 || d.State != "MODIFIED" || d.Owner != 1 {
		t.Fatalf("read not parked behind the writeback: %+v", d)
	}
	if *served {
		t.Fatal("parked read served before the writeback arrived")
	}
	landWriteback(t, eng, s, b, served)
}

// TestOwnerReadParksDuringDrain is the parking path reached from the
// deferred queue: node 1's read arrives while the entry is busy with a
// stale writeback of node 1's (stamp 0, its own acknowledgment due), waits
// behind it, and is parked when the stale writeback finishes and the
// entry drains. The entry must keep the parked read, idle but not quiet,
// until the current writeback lands.
func TestOwnerReadParksDuringDrain(t *testing.T) {
	eng, s, b, served := ownerReadRace(t, 2)
	home := s.Nodes[0].Home
	home.Handle(&Msg{Type: MsgWBReq, Block: b, Src: 1, Dst: 0, Data: true, Stamp: 0})
	home.Handle(&Msg{Type: MsgReadReq, Block: b, Src: 1, Dst: 0})
	if d := s.dirSnapshot(b); !d.Busy || d.Deferred != 1 {
		t.Fatalf("read not deferred behind the stale writeback: %+v", d)
	}
	eng.Run()
	if home.StaleWritebacks != 1 {
		t.Fatalf("StaleWritebacks = %d, want 1", home.StaleWritebacks)
	}
	if d := s.dirSnapshot(b); d.Parked != 1 || d.Busy || d.Deferred != 0 {
		t.Fatalf("read not parked when the entry drained: %+v", d)
	}
	if s.Quiesced() {
		t.Fatal("machine quiesced with a read parked at the home")
	}
	landWriteback(t, eng, s, b, served)
}

func TestOwnershipCyclesBackWithQueuedWriteback(t *testing.T) {
	// Regression for the ABA the fuzzer found: a cache victimizes its
	// dirty line, regains exclusivity through an update while the old
	// writeback is still queued, and the home must not let the stale
	// writeback clear the fresh ownership.
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.SLCSets = 4
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	c := s.Nodes[0].Cache
	// Gain exclusivity via an update (writes to an uncached block).
	c.Write(a, nil, nil)
	eng.Run()
	for _, e := range c.WriteCache().DrainAll() {
		c.doFlush(e, nil)
	}
	eng.Run()
	if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("no exclusive copy: %+v", l)
	}
	// Victimize it (conflicting read), then immediately write again: the
	// new write-cache flush races the writeback.
	done := false
	c.Read(b.Next(4).Addr(), func() { done = true })
	c.Write(a, nil, nil)
	eng.Run()
	if !done {
		t.Fatal("conflicting read never completed")
	}
	for _, e := range c.WriteCache().DrainAll() {
		c.doFlush(e, nil)
	}
	eng.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuiescedAndIdle(t *testing.T) {
	eng, s := testSystem(t, nil)
	if !s.Quiesced() {
		t.Fatal("fresh system not quiesced")
	}
	a := blockHomedAt(s, 1)
	got := false
	s.Nodes[0].Cache.Read(a, func() { got = true })
	if s.Quiesced() {
		t.Fatal("quiesced with a read in flight")
	}
	eng.Run()
	if !got || !s.Quiesced() {
		t.Fatal("not quiesced after drain")
	}
}

func TestStatsGatingSuppressesCounters(t *testing.T) {
	eng, s := testSystem(t, nil)
	s.SetStatsEnabled(false)
	a := blockHomedAt(s, 1)
	read(t, eng, s, 0, a)
	c := s.Nodes[0].Cache
	if c.Misses.Total() != 0 || c.CStats.SLCReadMisses != 0 {
		t.Fatal("miss counters advanced while stats disabled")
	}
	if s.Traffic.TotalBytes() != 0 {
		t.Fatal("traffic counted while stats disabled")
	}
	s.SetStatsEnabled(true)
	read(t, eng, s, 2, a)
	if s.Nodes[2].Cache.Misses.Total() != 1 {
		t.Fatal("miss not counted after re-enabling")
	}
}

func TestCWMUpdateRecallOfMigratoryBlock(t *testing.T) {
	// CW+M: a block goes migratory-exclusive; a laggard updater's combined
	// writes must recall the owner's copy and transfer exclusivity.
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.M = true
		p.CWThreshold = 4
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Node 0 writes into its write cache but does not flush yet.
	c0 := s.Nodes[0].Cache
	c0.Write(a, nil, nil)
	eng.Run()
	// Node 2 takes the block exclusive (write miss to uncached block, no
	// other copies: update grants exclusivity).
	c2 := s.Nodes[2].Cache
	c2.Write(a, nil, nil)
	eng.Run()
	for _, e := range c2.WriteCache().DrainAll() {
		c2.doFlush(e, nil)
	}
	eng.Run()
	e, _ := s.Nodes[1].Home.Entry(b)
	if !e.Modified || e.Owner != 2 {
		t.Fatalf("setup: %+v", e)
	}
	// Now node 0's stale combined writes flush: recall from node 2, grant
	// to node 0.
	for _, we := range c0.WriteCache().DrainAll() {
		c0.doFlush(we, nil)
	}
	eng.Run()
	e, _ = s.Nodes[1].Home.Entry(b)
	if !e.Modified || e.Owner != 0 {
		t.Fatalf("recall did not transfer ownership: %+v", e)
	}
	if lineOf(s, 2, a) != nil {
		t.Fatal("recalled owner kept its copy")
	}
	if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("updater's line: %+v", l)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetcherDiscardStat(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	read(t, eng, s, 0, a) // prefetches b+1
	if l := lineOf(s, 0, b.Next(1).Addr()); l == nil || !l.PrefetchBit {
		t.Fatal("setup failed")
	}
	// Node 2 writes b+1: node 0's unreferenced prefetched copy is
	// invalidated -> a discard.
	write(t, eng, s, 2, b.Next(1).Addr())
	if got := s.Nodes[0].Cache.Prefetcher().Stats.Discard; got != 1 {
		t.Fatalf("Discard = %d, want 1", got)
	}
}

func TestZeroDegreeRestartEndToEnd(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	pf := s.Nodes[0].Cache.Prefetcher()
	// Drive the degree to zero with useless fills.
	for i := 0; i < prefetchWindow; i++ {
		pf.OnFill()
	}
	if pf.Degree() != 0 {
		t.Fatalf("degree = %d", pf.Degree())
	}
	// A sequential scan of demand misses must restart prefetching through
	// the zero-bit machinery, end to end.
	base := memsys.BlockOf(blockHomedAt(s, 1))
	for i := 0; i < prefetchWindow+2; i++ {
		read(t, eng, s, 0, base.Next(i).Addr())
	}
	if pf.Degree() == 0 {
		t.Fatal("degree never restarted on a sequential miss stream")
	}
}

func TestStorageModel(t *testing.T) {
	base := DefaultParams()
	geomFrames, geomBlocks := 512, 1<<16
	basic := ComputeStorage(base, geomFrames, geomBlocks)
	// BASIC: 2 state bits per line; 3 + 16 bits per memory block.
	if basic.SLCLineBits != 2 {
		t.Fatalf("BASIC SLC bits = %d", basic.SLCLineBits)
	}
	if basic.MemoryLineBits != 19 {
		t.Fatalf("BASIC memory bits = %d", basic.MemoryLineBits)
	}
	p := base
	p.P = true
	if got := ComputeStorage(p, geomFrames, geomBlocks); got.SLCLineBits != 4 ||
		got.CacheMechanismBits != 12 {
		t.Fatalf("P storage = %+v", got)
	}
	m := base
	m.M = true
	sm := ComputeStorage(m, geomFrames, geomBlocks)
	if sm.MemoryLineBits != 19+1+4 { // +migratory bit +4-bit pointer
		t.Fatalf("M memory bits = %d", sm.MemoryLineBits)
	}
	cw := base
	cw.CW = true
	scw := ComputeStorage(cw, geomFrames, geomBlocks)
	if scw.SLCLineBits != 3 { // 2 state + 1-bit counter (threshold 1)
		t.Fatalf("CW SLC bits = %d", scw.SLCLineBits)
	}
	if scw.CacheMechanismBits == 0 {
		t.Fatal("CW write cache costs nothing")
	}
	// Limited pointers shrink the directory.
	lim := base
	lim.DirPointers = 2
	slim := ComputeStorage(lim, geomFrames, geomBlocks)
	if slim.MemoryLineBits >= basic.MemoryLineBits {
		t.Fatalf("Dir2B (%d bits) not smaller than full map (%d)",
			slim.MemoryLineBits, basic.MemoryLineBits)
	}
	// Every extension costs something over BASIC.
	all := base
	all.P, all.M, all.CW = true, true, true
	if ComputeStorage(all, geomFrames, geomBlocks).ExtraBitsOver(basic) <= 0 {
		t.Fatal("P+CW+M costs nothing")
	}
}

// TestReqQueueOrder pins the home's linked request FIFOs: push/pop keep
// arrival order, and a writeback's parked→deferred splice puts every
// parked request, in order, ahead of the deferred ones.
func TestReqQueueOrder(t *testing.T) {
	req := func(src int) *heldReq { return &heldReq{Msg: Msg{Src: int8(src)}} }
	drain := func(q *reqQueue) []int {
		var out []int
		for !q.empty() {
			out = append(out, int(q.pop().Src))
		}
		return out
	}
	var deferred, parked reqQueue
	deferred.prepend(&parked) // splicing an empty queue is a no-op
	if !deferred.empty() {
		t.Fatal("empty splice left requests behind")
	}
	deferred.push(req(3))
	deferred.push(req(4))
	parked.push(req(1))
	parked.push(req(2))
	if deferred.len() != 2 || parked.len() != 2 {
		t.Fatalf("len = %d/%d, want 2/2", deferred.len(), parked.len())
	}
	deferred.prepend(&parked)
	if !parked.empty() {
		t.Fatal("splice left the parked queue non-empty")
	}
	deferred.push(req(5)) // the tail survives the splice
	if got := drain(&deferred); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("order = %v, want [1 2 3 4 5]", got)
	}
	parked.push(req(6))
	deferred.prepend(&parked) // onto an empty queue
	deferred.push(req(7))
	if got := drain(&deferred); !reflect.DeepEqual(got, []int{6, 7}) {
		t.Fatalf("order = %v, want [6 7]", got)
	}
}
