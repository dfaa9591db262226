package core

import (
	"testing"

	"ccsim/internal/cache"
	"ccsim/internal/memsys"
)

// ---------- P: adaptive sequential prefetching ----------

func TestPrefetchIssuedOnMiss(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	read(t, eng, s, 0, a)
	// Degree starts at 1: block b+1 must have been prefetched.
	l := lineOf(s, 0, b.Next(1).Addr())
	if l == nil || !l.PrefetchBit {
		t.Fatalf("next block not prefetched: %+v", l)
	}
	pf := s.Nodes[0].Cache.Prefetcher()
	if pf.Stats.Issued != 1 {
		t.Fatalf("Issued = %d, want 1", pf.Stats.Issued)
	}
	// A read of the prefetched block is an SLC hit and marks it useful.
	pre := s.Nodes[0].Cache.CStats.SLCReadMisses
	read(t, eng, s, 0, b.Next(1).Addr())
	if s.Nodes[0].Cache.CStats.SLCReadMisses != pre {
		t.Fatal("read of prefetched block missed")
	}
	if pf.Stats.Useful != 1 {
		t.Fatalf("Useful = %d, want 1", pf.Stats.Useful)
	}
	if l.PrefetchBit {
		t.Fatal("prefetch bit not cleared by the demand reference")
	}
}

func TestPrefetchSkipsPresentAndPending(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	read(t, eng, s, 0, b.Next(1).Addr()) // b+1 now cached (and b+2 prefetched)
	pf := s.Nodes[0].Cache.Prefetcher()
	issued := pf.Stats.Issued
	read(t, eng, s, 0, a) // miss on b; b+1 present -> no prefetch for it
	if pf.Stats.Issued != issued {
		t.Fatalf("prefetch issued for an already-present block (%d -> %d)", issued, pf.Stats.Issued)
	}
}

func TestPrefetchDegreeAdaptsUp(t *testing.T) {
	pf := NewPrefetcher(8, 12, 6)
	if pf.Degree() != 1 {
		t.Fatalf("initial degree %d, want 1", pf.Degree())
	}
	// A full window of useful prefetches: degree doubles.
	for i := 0; i < prefetchWindow; i++ {
		pf.OnUseful()
		pf.OnFill()
	}
	if pf.Degree() != 2 {
		t.Fatalf("degree after useful window = %d, want 2", pf.Degree())
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < prefetchWindow; i++ {
			pf.OnUseful()
			pf.OnFill()
		}
	}
	if pf.Degree() != 8 {
		t.Fatalf("degree not capped at max: %d", pf.Degree())
	}
}

func TestPrefetchDegreeAdaptsDownToZeroAndRestarts(t *testing.T) {
	pf := NewPrefetcher(8, 12, 6)
	// Two windows with no useful prefetches: 1 -> 0.
	for i := 0; i < prefetchWindow; i++ {
		pf.OnFill()
	}
	if pf.Degree() != 0 {
		t.Fatalf("degree after useless window = %d, want 0", pf.Degree())
	}
	if pf.Candidates(10) != nil {
		t.Fatal("candidates at degree 0")
	}
	// Sequential miss pattern: the zero-bit machinery must restart K=1.
	b := memsys.Block(100)
	for i := 0; i < prefetchWindow+1; i++ {
		pf.OnMiss(b.Next(i))
	}
	if pf.Degree() != 1 {
		t.Fatalf("degree after sequential misses = %d, want 1 (restart)", pf.Degree())
	}
}

func TestPrefetchZeroBitIgnoresRandomMisses(t *testing.T) {
	pf := NewPrefetcher(8, 12, 6)
	for i := 0; i < prefetchWindow; i++ {
		pf.OnFill() // degree -> 0
	}
	// Strided (non-sequential) misses must not restart prefetching.
	for i := 0; i < 64; i++ {
		pf.OnMiss(memsys.Block(1000 + i*7))
	}
	if pf.Degree() != 0 {
		t.Fatalf("degree restarted by non-sequential misses: %d", pf.Degree())
	}
}

func TestPrefetchPartialHitMerges(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Start a demand miss (which prefetches b+1), then immediately demand
	// b+1: it must merge with the pending prefetch, not issue a second
	// request.
	done := 0
	c := s.Nodes[0].Cache
	c.Read(a, func() { done++ })
	c.Read(b.Next(1).Addr(), func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 reads completed", done)
	}
	if got := s.Nodes[1].Home.ReadReqs; got != 2 {
		t.Fatalf("home saw %d requests, want 2 (demand + prefetch, merged)", got)
	}
	pf := c.Prefetcher()
	if pf.Stats.PartHits != 1 {
		t.Fatalf("PartHits = %d, want 1", pf.Stats.PartHits)
	}
}

func TestPrefetchRespectsSLWBCapacity(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.P = true
		p.SLWBEntries = 2
		p.PrefetchMaxK = 8
	})
	// Force the degree up by faking a useful history.
	pf := s.Nodes[0].Cache.Prefetcher()
	for i := 0; i < prefetchWindow; i++ {
		pf.OnUseful()
		pf.OnFill()
	}
	for i := 0; i < prefetchWindow; i++ {
		pf.OnUseful()
		pf.OnFill()
	}
	if pf.Degree() != 4 {
		t.Fatalf("degree = %d, want 4", pf.Degree())
	}
	a := blockHomedAt(s, 1)
	read(t, eng, s, 0, a)
	// Only 2 of the 4 candidates fit in the SLWB.
	if pf.Stats.Issued != 2 {
		t.Fatalf("Issued = %d, want 2 (SLWB capacity)", pf.Stats.Issued)
	}
}

// ---------- M: migratory sharing optimization ----------

func TestMigratoryDetection(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.M = true })
	a := blockHomedAt(s, 0)
	b := memsys.BlockOf(a)
	// Node 1: read, write. Node 2: read, write -> detected at node 2's
	// ownership request (two copies, last writer differs).
	read(t, eng, s, 1, a)
	write(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	e, _ := s.Nodes[0].Home.Entry(b)
	if e.Migratory {
		t.Fatal("migratory before the second writer")
	}
	write(t, eng, s, 2, a)
	e, _ = s.Nodes[0].Home.Entry(b)
	if !e.Migratory {
		t.Fatal("migratory sharing not detected")
	}
	if s.Nodes[0].Home.MigratoryDetections != 1 {
		t.Fatalf("detections = %d", s.Nodes[0].Home.MigratoryDetections)
	}
}

func TestMigratoryReadSuppliesExclusiveAndSavesOwnership(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.M = true })
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	write(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a) // migratory now
	// Third node in the chain: its read gets an exclusive copy...
	read(t, eng, s, 3, a)
	l := lineOf(s, 3, a)
	if l == nil || l.State != cache.Dirty || !l.MigSupplied {
		t.Fatalf("migratory read did not supply exclusively: %+v", l)
	}
	if lineOf(s, 2, a) != nil {
		t.Fatal("previous holder kept its copy")
	}
	// ...so its write hits locally: no ownership request.
	pre := s.Nodes[0].Home.OwnReqs
	write(t, eng, s, 3, a)
	if s.Nodes[0].Home.OwnReqs != pre {
		t.Fatal("migratory write still sent an ownership request")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigratoryRevertsOnReadOnlySharing(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.M = true })
	a := blockHomedAt(s, 0)
	b := memsys.BlockOf(a)
	read(t, eng, s, 1, a)
	write(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a) // migratory
	read(t, eng, s, 3, a)  // exclusive supply to node 3 (not written yet)
	// Node 1 reads while node 3 has not written: the pattern is no longer
	// migratory. Home must revert and both keep shared copies.
	read(t, eng, s, 1, a)
	e, _ := s.Nodes[0].Home.Entry(b)
	if e.Migratory {
		t.Fatal("block still migratory after a read-read sequence")
	}
	if s.Nodes[0].Home.MigratoryReverts != 1 {
		t.Fatalf("reverts = %d", s.Nodes[0].Home.MigratoryReverts)
	}
	l3 := lineOf(s, 3, a)
	l1 := lineOf(s, 1, a)
	if l3 == nil || l3.State != cache.Shared || l1 == nil || l1.State != cache.Shared {
		t.Fatalf("copies after revert: node3=%+v node1=%+v", l3, l1)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigratoryOffInBasic(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	write(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a)
	read(t, eng, s, 3, a)
	if l := lineOf(s, 3, a); l == nil || l.State != cache.Shared {
		t.Fatalf("BASIC supplied a non-shared copy: %+v", l)
	}
	e, _ := s.Nodes[0].Home.Entry(memsys.BlockOf(a))
	if e.Migratory {
		t.Fatal("migratory bit set with M disabled")
	}
}

// P+M: prefetches to migratory blocks fetch exclusive copies
// (hardware read-exclusive prefetching, paper §3.4).
func TestReadExclusivePrefetchUnderPM(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.P = true
		p.M = true
	})
	a := blockHomedAt(s, 0)
	b := memsys.BlockOf(a)
	// Make block b+1 migratory.
	nb := b.Next(1).Addr()
	read(t, eng, s, 1, nb)
	write(t, eng, s, 1, nb)
	read(t, eng, s, 2, nb)
	write(t, eng, s, 2, nb)
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a)
	// Node 3 misses on b; the prefetch of b+1 must return an exclusive
	// copy taken from node 2.
	read(t, eng, s, 3, a)
	eng.Run()
	l := lineOf(s, 3, nb)
	if l == nil || !l.PrefetchBit {
		t.Fatalf("b+1 not prefetched: %+v", l)
	}
	if l.State != cache.Dirty || !l.MigSupplied {
		t.Fatalf("prefetch of migratory block not exclusive: %+v", l)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ---------- CW: competitive update with write caches ----------

func TestCWWriteAllocatesWriteCacheNoFetch(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.CW = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	c := s.Nodes[0].Cache
	c.Write(a, nil, nil)
	c.Write(a+4, nil, nil) // combines
	eng.Run()
	// No block fetch is triggered by a write miss (paper §3.3).
	if lineOf(s, 0, a) != nil {
		t.Fatal("write miss fetched the block under CW")
	}
	mask, ok := c.WriteCache().Lookup(b)
	if !ok || mask.Count() != 2 {
		t.Fatalf("write cache mask = %v ok=%v", mask, ok)
	}
	if c.WriteCache().Combined() != 1 {
		t.Fatal("writes not combined")
	}
	// A read of a written word hits the write cache.
	hits := c.CStats.WCHits
	done := false
	c.Read(a+4, func() { done = true })
	eng.Run()
	if !done || c.CStats.WCHits != hits+1 {
		t.Fatalf("write-cache read hit not taken (done=%v hits=%d)", done, c.CStats.WCHits)
	}
	// A read of an unwritten word of the same block must fetch the block.
	miss := false
	if !c.Read(a+8, func() { miss = true }) {
		eng.Run()
	}
	if !miss && lineOf(s, 0, a) == nil {
		t.Fatal("read of unwritten word did not fetch")
	}
}

func TestCWReleaseFlushesAndGrantsExclusive(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.CW = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	lock := blockHomedAt(s, 2)
	c := s.Nodes[0].Cache
	acq := false
	c.Acquire(lock, func() { acq = true })
	eng.Run()
	c.Write(a, nil, nil)
	c.Release(lock, nil)
	eng.Run()
	if !acq {
		t.Fatal("no lock")
	}
	if c.WriteCache().Occupancy() != 0 {
		t.Fatal("write cache not flushed at release")
	}
	// Sole writer with no other sharers: home grants exclusivity.
	e, _ := s.Nodes[1].Home.Entry(b)
	if !e.Modified || e.Owner != 0 {
		t.Fatalf("updater not granted exclusivity: %+v", e)
	}
	l := lineOf(s, 0, a)
	if l == nil || l.State != cache.Dirty {
		t.Fatalf("line after exclusive update ack: %+v", l)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCWUpdatePropagatesToSharersAndCounterInvalidates(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.CW = true }) // threshold 1
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	read(t, eng, s, 2, a)
	read(t, eng, s, 3, a)
	// Writer 0 updates twice; sharers 2 and 3 tolerate one foreign update
	// (threshold 1) and are invalidated by the second, having shown no
	// intervening local access.
	c := s.Nodes[0].Cache
	flush := func() {
		c.Write(a, nil, nil)
		eng.Run() // let the write drain into the write cache
		for _, e := range c.WriteCache().DrainAll() {
			c.doFlush(e, nil)
		}
		eng.Run()
	}
	flush()
	if lineOf(s, 2, a) == nil || lineOf(s, 3, a) == nil {
		t.Fatal("sharers invalidated by the first update (within threshold)")
	}
	flush()
	if lineOf(s, 2, a) != nil || lineOf(s, 3, a) != nil {
		t.Fatal("sharers not invalidated past the competitive threshold")
	}
	e, _ := s.Nodes[1].Home.Entry(b)
	// All other copies gone: writer got exclusivity.
	if !e.Modified || e.Owner != 0 {
		t.Fatalf("directory after updates: %+v", e)
	}
	// The invalidations are coherence events for the miss classifier.
	pre := s.Nodes[2].Cache.Misses
	read(t, eng, s, 2, a)
	if s.Nodes[2].Cache.Misses[1]-pre[1] != 1 { // stats.Coherence
		t.Fatal("post-update miss not classified coherence")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCWLocalAccessPresetsCounter(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.CW = true }) // threshold 1
	a := blockHomedAt(s, 1)
	c0 := s.Nodes[0].Cache
	read(t, eng, s, 2, a)
	flushOne := func() {
		c0.Write(a, nil, nil)
		eng.Run()
		for _, e := range c0.WriteCache().DrainAll() {
			c0.doFlush(e, nil)
		}
		eng.Run()
	}
	flushOne() // counter at node 2: 1 -> 0, copy kept
	if lineOf(s, 2, a) == nil {
		t.Fatal("sharer invalidated within threshold")
	}
	read(t, eng, s, 2, a) // local access presets the counter
	flushOne()            // 1 -> 0 again, kept
	if lineOf(s, 2, a) == nil {
		t.Fatal("sharer invalidated despite intervening local access")
	}
	flushOne() // exhausted with no access: invalidate
	if lineOf(s, 2, a) != nil {
		t.Fatal("sharer survived past the competitive threshold")
	}
}

func TestCWKeepsMemoryCleanSoMissesAreTwoHop(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.CWThreshold = 4 // keep the reader's copy alive across updates
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Node 3 shares the block; node 0 writes and its update reaches
	// memory (home stays CLEAN because another sharer remains). A later
	// miss by node 2 must then be serviced by memory in two transfers —
	// the shorter coherence-miss latency the paper credits CW with.
	read(t, eng, s, 3, a)
	c := s.Nodes[0].Cache
	c.Write(a, nil, nil)
	eng.Run()
	for _, e := range c.WriteCache().DrainAll() {
		c.doFlush(e, nil)
	}
	eng.Run()
	e, _ := s.Nodes[1].Home.Entry(b)
	if e.Modified {
		t.Fatalf("home not CLEAN after update with surviving sharer: %+v", e)
	}
	start := eng.Now()
	lat := read(t, eng, s, 2, a) - start
	if lat != 147 {
		t.Fatalf("read after updates took %d, want 147 (clean at home)", lat)
	}
}

// CW+M: migratory detection by update interrogation (paper §3.4).
func TestCWMMigratoryDetectionByProbe(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.M = true
		p.CWThreshold = 4 // keep copies alive so probing decides
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Classic migratory pattern through updates: node 2 reads+writes,
	// node 3 reads+writes. Each holds a copy and modifies it.
	flush := func(n int) {
		c := s.Nodes[n].Cache
		for _, e := range c.WriteCache().DrainAll() {
			c.doFlush(e, nil)
		}
		eng.Run()
	}
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a)
	flush(2)
	read(t, eng, s, 3, a)
	write(t, eng, s, 3, a) // node 3's copy now locally modified
	flush(3)               // update from a different processor: probe
	e, _ := s.Nodes[1].Home.Entry(b)
	if !e.Migratory {
		t.Fatal("CW+M probe did not detect migratory sharing")
	}
	// Node 2 modified since its last home update? Node 2's copy was
	// updated by node 3's flush... the probe asked node 2; it had written
	// (LocallyModified) so it gave up its copy.
	if lineOf(s, 2, a) != nil {
		t.Fatal("probed cache kept its modified copy")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCWMProbeKeepsUnmodifiedCopies(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.M = true
		p.CWThreshold = 4
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Node 2 only reads (never writes): a probe must not take its copy,
	// and the block must not be deemed migratory.
	read(t, eng, s, 2, a)
	write(t, eng, s, 0, a)
	c0 := s.Nodes[0].Cache
	for _, e := range c0.WriteCache().DrainAll() {
		c0.doFlush(e, nil)
	}
	eng.Run()
	write(t, eng, s, 3, a)
	c3 := s.Nodes[3].Cache
	for _, e := range c3.WriteCache().DrainAll() {
		c3.doFlush(e, nil)
	}
	eng.Run() // differing updaters -> probe; node 2 unmodified -> keeps
	e, _ := s.Nodes[1].Home.Entry(b)
	if e.Migratory {
		t.Fatal("read-only sharer misclassified as migratory")
	}
	if lineOf(s, 2, a) == nil {
		t.Fatal("unmodified copy taken by probe")
	}
}
