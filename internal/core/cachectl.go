package core

import (
	"fmt"

	"ccsim/internal/cache"
	"ccsim/internal/memsys"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
	"ccsim/internal/telemetry"
	"ccsim/internal/trace"
)

// mshrKind identifies what a pending-transaction (SLWB) entry is waiting
// for.
type mshrKind int

const (
	mshrRead   mshrKind = iota // read miss or prefetch in flight
	mshrOwn                    // ownership request in flight
	mshrUpdate                 // competitive update in flight
)

// mshr is one lockup-free pending transaction. The SLC itself has no
// transient states; everything in flight lives here (paper §2: "all pending
// accesses are kept in the SLWB of the requesting node until they are
// completed"). Records come from System.mshrs, where idx names them, and
// retired records go back with their slices' storage, so a record owns its
// slices: hand their contents to another record by copying, never by
// sharing.
type mshr struct {
	block        memsys.Block
	kind         mshrKind
	prefetchOnly bool // a prefetch no demand reference has merged with yet
	countsSLWB   bool
	idx          int32
	txn          uint64 // telemetry span of this transaction (0 = untracked)

	// timed marks a read opened by a demand miss at missStart; its fill
	// records the miss latency.
	timed     bool
	missStart sim.Time

	readers   []readerWait    // demand readers to unblock at fill
	performed []func()        // write-performed callbacks (sequential consistency)
	after     []afterAction   // deferred actions to run at completion
	nWrites   int             // writes merged into this entry
	obs       []int           // write obligations this transaction performs
	words     []int           // words written through this transaction (ownership)
	mask      memsys.WordMask // words carried by a combined update
}

// afterAction is work waiting for a transaction on its block to complete:
// a buffered write that found the block being fetched, or (flush set) a
// write-cache entry's combined update that found a transaction in flight.
type afterAction struct {
	flush bool
	w     flwbWrite     // !flush
	e     cache.WCEntry // flush
	obs   []int         // flush: the entry's write obligations
}

// readerWait is one processor read blocked on this transaction; the word
// lets the data-value checker observe what the reader sees.
type readerWait struct {
	word int
	fn   func()
}

// wbEntry is one writeback-buffer record: a dirty block victimized or
// relinquished by this cache whose writeback the home has not acknowledged
// yet. It serves forwards that cross the writeback on the wire.
type wbEntry struct {
	block memsys.Block
	data  memsys.BlockData // payload of the latest writeback
	mask  memsys.WordMask

	// requeued: a fresh writeback of grant generation stamp waits for the
	// in-flight one's acknowledgment (ownership cycled back in between).
	requeued bool
	stamp    int32
}

// flwbWrite is one first-level write-buffer entry. ob is the write's
// obligation id: releases and barriers wait for all obligations issued
// before them (and only those) to be globally performed.
type flwbWrite struct {
	block     memsys.Block
	word      int
	performed func()
	ob        int
}

// relKind distinguishes the two drain-point operations in the release
// queue.
type relKind int

const (
	relLock relKind = iota
	relBarrier
)

type relReq struct {
	kind      relKind
	lock      memsys.Block // for relLock
	barID     int          // for relBarrier
	ack       func()       // SC release acknowledgment waiter (nil under RC)
	mark      int          // obligation ids below this must complete first
	remaining int          // prior obligations still outstanding
}

// CacheStats are the per-cache counters the evaluation reports.
type CacheStats struct {
	FLCReadMisses   uint64
	SLCReadMisses   uint64 // demand misses that launched a memory request
	SLCHits         uint64
	WCHits          uint64 // reads serviced by the write cache
	PartialHits     uint64 // demand misses merged with a pending prefetch
	ReadMissLatency int64  // summed demand-miss service time (pclocks)
	ReadMissCount   uint64
}

// CacheCtl is the second-level cache controller of one node: the
// lockup-free SLC, the FLC it keeps inclusive, both write buffers, the
// write cache and prefetcher when enabled, and the release/barrier drain
// logic of the consistency model.
type CacheCtl struct {
	sys *System
	id  int

	flc    *cache.FLC
	slc    *cache.SLC
	slcRes *sim.Resource

	flwb     *cache.FIFO[flwbWrite]
	draining bool
	// A processor write that found the FLWB full waits here until a slot
	// frees; flwbAccepted (nil under SC) then unblocks the processor.
	flwbBlocked  bool
	flwbHeld     flwbWrite
	flwbAccepted func()

	// slwb holds every pending transaction, at most one per block, searched
	// by block. Besides the SLWB's slwbUsed counted entries it holds the
	// processor's one blocking demand read and the fence-time write-cache
	// drains that may overfill it. It is made with room for the entries
	// and the read, so only such a drain grows it.
	slwb     []*mshr
	slwbUsed int
	wb       []wbEntry // the writeback buffer

	wc *cache.WriteCache
	pf *Prefetcher

	// Write obligations: every buffered write gets an id; a release with
	// mark m fires once every obligation with id < m has performed. This
	// is exactly RC's "release waits for prior writes only" — later writes
	// do not delay it.
	nextOb  int
	liveObs int
	wcObs   map[memsys.Block][]int // obligations buffered per write-cache entry
	obsFree [][]int                // emptied wcObs slices, for reuse

	deferredWrites []flwbWrite

	relQueue      []relReq
	relAckWaiters []func()
	lockWaiters   map[memsys.Block]func()
	barWaiters    map[int]func()

	// Data-value verification bookkeeping: the versions this processor
	// observed.
	lastSeen memsys.Table[memsys.BlockData]

	// Measurements.
	Cls    *stats.Classifier
	Misses stats.Misses
	CStats CacheStats
}

func newSLC(p Params) *cache.SLC {
	ways := p.SLCWays
	if ways == 0 {
		ways = 1
	}
	return cache.NewSLCAssoc(p.SLCSets, ways, p.VerifyData)
}

func newCacheCtl(s *System, id int) *CacheCtl {
	c := &CacheCtl{
		sys:         s,
		id:          id,
		flc:         cache.NewFLC(s.P.FLCSets),
		slc:         newSLC(s.P),
		slcRes:      sim.NewResource(s.Eng, fmt.Sprintf("slc%d", id)),
		flwb:        cache.NewFIFO[flwbWrite](s.P.FLWBEntries),
		slwb:        make([]*mshr, 0, s.P.SLWBEntries+1),
		lockWaiters: make(map[memsys.Block]func()),
		wcObs:       make(map[memsys.Block][]int),
		barWaiters:  make(map[int]func()),
		Cls:         stats.NewClassifier(),
	}
	if s.P.CW {
		c.wc = cache.NewWriteCache(s.P.WriteCacheBlocks)
	}
	if s.P.P {
		c.pf = NewPrefetcher(s.P.PrefetchMaxK, s.P.PrefetchHighMark, s.P.PrefetchLowMark)
	}
	return c
}

// Prefetcher exposes the node's prefetcher (nil when P is off).
func (c *CacheCtl) Prefetcher() *Prefetcher { return c.pf }

// WriteCache exposes the node's write cache (nil when CW is off).
func (c *CacheCtl) WriteCache() *cache.WriteCache { return c.wc }

// pending returns block b's in-flight transaction, or nil.
func (c *CacheCtl) pending(b memsys.Block) *mshr {
	for _, ms := range c.slwb {
		if ms.block == b {
			return ms
		}
	}
	return nil
}

// newMSHR opens a cleared transaction record of the given kind for block b,
// reusing a retired one when available.
func (c *CacheCtl) newMSHR(b memsys.Block, kind mshrKind) *mshr {
	i, ms := c.sys.mshrs.get()
	ms.idx, ms.block, ms.kind = i, b, kind
	c.slwb = append(c.slwb, ms)
	return ms
}

// closeMSHR removes a completed transaction from the pending set; its
// record stays valid until retireMSHR.
func (c *CacheCtl) closeMSHR(ms *mshr) {
	last := len(c.slwb) - 1
	for i, x := range c.slwb {
		if x == ms {
			c.slwb[i] = c.slwb[last]
			c.slwb[last] = nil
			c.slwb = c.slwb[:last]
			return
		}
	}
}

// retireMSHR recycles a closed transaction's record. The caller must be
// done with it: the next newMSHR may hand it out again. It resets the
// record field by field, keeping its slices' storage: assigning a whole
// mshr literal copies it through runtime.duffcopy.
func (c *CacheCtl) retireMSHR(ms *mshr) {
	i := ms.idx
	clear(ms.readers)
	clear(ms.performed)
	clear(ms.after)
	ms.block, ms.kind, ms.prefetchOnly, ms.countsSLWB, ms.idx, ms.txn = 0, 0, false, false, 0, 0
	ms.timed, ms.missStart = false, 0
	ms.readers, ms.performed, ms.after = ms.readers[:0], ms.performed[:0], ms.after[:0]
	ms.nWrites, ms.obs, ms.words, ms.mask = 0, ms.obs[:0], ms.words[:0], 0
	c.sys.mshrs.put(i)
}

func (c *CacheCtl) idle() bool {
	return len(c.slwb) == 0 && len(c.wb) == 0 &&
		c.flwb.Empty() && len(c.deferredWrites) == 0 && len(c.relQueue) == 0 && !c.draining
}

// completeObs retires write obligations and re-checks queued releases.
func (c *CacheCtl) completeObs(obs []int) {
	if len(obs) == 0 {
		return
	}
	c.liveObs -= len(obs)
	for i := range c.relQueue {
		r := &c.relQueue[i]
		for _, ob := range obs {
			if ob < r.mark {
				r.remaining--
			}
		}
	}
	c.tryRelease()
}

func (c *CacheCtl) send(m *Msg) {
	m.Src = int8(c.id)
	c.sys.Send(m)
}

// homeOf returns block b's home node as a message's destination.
func (c *CacheCtl) homeOf(b memsys.Block) int8 { return int8(c.sys.HomeOf(b)) }

func (c *CacheCtl) statsOn() bool { return c.sys.statsOn }

// SLCResource exposes the SLC's occupancy model for utilization sampling.
func (c *CacheCtl) SLCResource() *sim.Resource { return c.slcRes }

// PendingTxns returns the number of outstanding coherence transactions
// (occupied MSHR entries), an outstanding-miss gauge for the sampler.
func (c *CacheCtl) PendingTxns() int { return len(c.slwb) }

// beginSpan opens a telemetry span for a transaction launched now. Spans are
// gated like every other measurement: only the parallel section records.
func (c *CacheCtl) beginSpan(b memsys.Block, kind telemetry.SpanKind) uint64 {
	if c.sys.Tele == nil || !c.sys.statsOn {
		return 0
	}
	return c.sys.Tele.Begin(c.id, uint64(b), kind, int64(c.sys.Eng.Now()))
}

// endSpan closes a transaction's span at the current instant.
func (c *CacheCtl) endSpan(txn uint64) {
	if txn != 0 {
		c.sys.Tele.End(txn, int64(c.sys.Eng.Now()))
	}
}

// observe checks the data-value invariant for a read of word w returning
// version v: per processor and location, observed versions never decrease.
func (c *CacheCtl) observe(b memsys.Block, w int, v int32) {
	if c.sys.verSeq == nil {
		return
	}
	if ck := c.sys.Check; ck != nil {
		ck.OnRead(c.id, b, w, int64(v))
	}
	last := c.lastSeen.At(b)
	if v < last[w] {
		c.sys.dataViolation(b, "node %d read block %d word %d version %d after seeing %d",
			c.id, b, w, v, last[w])
	}
	last[w] = v
}

// observeCached checks a read of word w of block b served by its SLC line.
func (c *CacheCtl) observeCached(b memsys.Block, w int) {
	if d := c.slc.Words(b); d != nil {
		c.observe(b, w, d[w])
	}
}

// setWords gives block b's SLC line the words d, when the SLC keeps words.
func (c *CacheCtl) setWords(b memsys.Block, d *memsys.BlockData) {
	if p := c.slc.Words(b); p != nil {
		*p = *d
	}
}

// lineWords returns the words of block b's SLC line: zero when the SLC
// keeps none.
func (c *CacheCtl) lineWords(b memsys.Block) memsys.BlockData {
	if p := c.slc.Words(b); p != nil {
		return *p
	}
	return memsys.BlockData{}
}

// performLocal serializes a write into block b's exclusive line.
func (c *CacheCtl) performLocal(b memsys.Block, w int) {
	if d := c.slc.Words(b); d != nil {
		d[w] = c.sys.serialize(c.id, b, w)
	}
}

// ckLine reports an SLC state transition (install, upgrade, downgrade) for
// block b to the live checker. One nil check when the checker is off.
func (c *CacheCtl) ckLine(b memsys.Block, dirty bool, event string) {
	if ck := c.sys.Check; ck != nil {
		ck.OnLine(c.id, b, dirty, event)
	}
}

// ckDrop reports block b leaving this SLC (invalidation, replacement).
func (c *CacheCtl) ckDrop(b memsys.Block, event string) {
	if ck := c.sys.Check; ck != nil {
		ck.OnLineDrop(c.id, b, event)
	}
}

// fillFLC fills the FLC and, with the checker on, asserts inclusion at the
// fill: the SLC must already hold any block entering the FLC.
func (c *CacheCtl) fillFLC(b memsys.Block) {
	if ck := c.sys.Check; ck != nil && c.slc.Lookup(b) == nil {
		ck.Failf(fmt.Sprintf("cache %d", c.id), b,
			"FLC fill of block %d without SLC inclusion", b)
	}
	c.flc.Fill(b)
}

// ---------- Processor interface ----------

// Read issues a processor load for address a. It returns true on an FLC hit
// (data available this cycle); otherwise it returns false and unblock runs
// when the block reaches the FLC.
func (c *CacheCtl) Read(a memsys.Addr, unblock func()) bool {
	b := memsys.BlockOf(a)
	if c.statsOn() && c.sys.Shr != nil {
		// The classifier needs the full access stream, FLC hits included —
		// read/write ratios and ownership handoffs are invisible in the
		// miss stream alone.
		c.sys.Shr.OnRead(c.id, uint64(b))
	}
	if c.flc.Lookup(b) {
		if c.sys.verSeq != nil {
			// Inclusion guarantees the SLC holds the block too; observe the
			// version the processor sees.
			if d := c.slc.Words(b); d != nil {
				c.observe(b, memsys.WordIndex(a), d[memsys.WordIndex(a)])
			} else {
				c.sys.dataViolation(b, "node %d: FLC hit on block %d without SLC inclusion", c.id, b)
			}
		}
		return true
	}
	if c.statsOn() {
		c.CStats.FLCReadMisses++
	}
	j := c.getJob()
	j.block, j.word, j.unblock = b, memsys.WordIndex(a), unblock
	c.slcRes.UsePipelinedCall(c.sys.P.Timing.SLCCycle, c.sys.P.Timing.SLCAccess, runReadJob, j)
	return false
}

func (c *CacheCtl) readSLC(b memsys.Block, word int, unblock func()) {
	if ms := c.pending(b); ms != nil {
		switch ms.kind {
		case mshrRead:
			if ms.prefetchOnly {
				// Demand reference merging with a pending prefetch.
				ms.prefetchOnly = false
				if c.statsOn() {
					c.CStats.PartialHits++
				}
				if c.pf != nil {
					c.pf.OnPartialHit()
				}
			}
			ms.readers = append(ms.readers, readerWait{word, unblock})
			return
		case mshrOwn, mshrUpdate:
			if line := c.slc.Lookup(b); line != nil {
				c.touch(line)
				c.flc.Fill(b)
				if c.statsOn() {
					c.CStats.SLCHits++
				}
				c.observeCached(b, word)
				unblock()
				return
			}
			ms.readers = append(ms.readers, readerWait{word, unblock})
			return
		}
	}
	if line := c.slc.Lookup(b); line != nil {
		c.touch(line)
		c.flc.Fill(b)
		if c.statsOn() {
			c.CStats.SLCHits++
		}
		c.observeCached(b, word)
		unblock()
		return
	}
	if c.wc != nil {
		if mask, ok := c.wc.Lookup(b); ok && mask.Has(word) {
			// The word is in the write cache; the processor reads it from
			// there (paper §3.3). No FLC fill: only the written words are
			// valid.
			if c.statsOn() {
				c.CStats.WCHits++
			}
			unblock()
			return
		}
	}
	// Full demand miss.
	if c.statsOn() {
		c.Misses.Add(c.Cls.Classify(b))
		c.CStats.SLCReadMisses++
		if c.sys.Shr != nil {
			c.sys.Shr.OnMiss(uint64(b))
		}
	}
	ms := c.newMSHR(b, mshrRead)
	ms.timed, ms.missStart = true, c.sys.Eng.Now()
	ms.readers = append(ms.readers, readerWait{word, unblock})
	ms.txn = c.beginSpan(b, telemetry.SpanRead)
	c.send(&Msg{Type: MsgReadReq, Block: b, Dst: c.homeOf(b), Txn: ms.txn})
	if c.pf != nil {
		c.pf.OnMiss(b)
		c.issuePrefetches(b)
	}
}

func (c *CacheCtl) issuePrefetches(b memsys.Block) {
	for _, nb := range c.pf.Candidates(b) {
		if c.slc.Lookup(nb) != nil || c.pending(nb) != nil || c.wbFind(nb) >= 0 {
			continue
		}
		if c.slwbUsed >= c.sys.P.SLWBEntries {
			break
		}
		ms := c.newMSHR(nb, mshrRead)
		ms.prefetchOnly, ms.countsSLWB = true, true
		ms.txn = c.beginSpan(nb, telemetry.SpanPrefetch)
		c.slwbUsed++
		c.pf.OnIssue()
		c.send(&Msg{Type: MsgReadReq, Block: nb, Dst: c.homeOf(nb), Prefetch: true, Txn: ms.txn})
	}
}

// touch records a local access for the extension bits: it presets the
// competitive counter and resolves the prefetch bit.
func (c *CacheCtl) touch(line *cache.Line) {
	if c.wc != nil {
		line.CWCount = int32(c.sys.P.CWThreshold)
	}
	if line.PrefetchBit {
		line.PrefetchBit = false
		if c.pf != nil {
			c.pf.OnUseful()
		}
	}
}

// Write issues a processor store for address a. It returns true if the
// FLWB accepted the write this cycle; otherwise accepted runs when a slot
// frees. performed (which may be nil) runs when the write is globally
// performed — what a sequentially consistent processor stalls on.
func (c *CacheCtl) Write(a memsys.Addr, accepted, performed func()) bool {
	b := memsys.BlockOf(a)
	word := memsys.WordIndex(a)
	w := flwbWrite{block: b, word: word, performed: performed}
	if c.flwb.Full() {
		if c.flwbBlocked {
			panic("core: two writes waiting for the FLWB")
		}
		c.flwbBlocked, c.flwbHeld, c.flwbAccepted = true, w, accepted
		return false
	}
	c.pushWrite(w)
	return true
}

func (c *CacheCtl) pushWrite(w flwbWrite) {
	if c.statsOn() && c.sys.Shr != nil {
		// Hooked at write-buffer accept so it fires exactly once per
		// program-order write under every protocol — the SLC drain path
		// varies (write-cache combining may absorb stores entirely).
		c.sys.Shr.OnWrite(c.id, uint64(w.block), w.word)
	}
	w.ob = c.nextOb
	c.nextOb++
	c.liveObs++
	c.flwb.Push(w)
	c.drainFLWB()
}

func (c *CacheCtl) drainFLWB() {
	if c.draining || c.flwb.Empty() {
		return
	}
	c.draining = true
	c.slcRes.UsePipelinedCall(c.sys.P.Timing.SLCCycle, c.sys.P.Timing.SLCAccess, drainStep, c)
}

// drainStep performs the head FLWB write's SLC access (the continuation of
// drainFLWB, scheduled through the pooled event path: its only context is
// the controller itself).
func drainStep(a any) {
	c := a.(*CacheCtl)
	w, _ := c.flwb.Peek()
	if c.processWrite(w) {
		c.flwb.Pop()
		c.draining = false
		if c.flwbBlocked {
			w, accepted := c.flwbHeld, c.flwbAccepted
			c.flwbBlocked, c.flwbHeld, c.flwbAccepted = false, flwbWrite{}, nil
			c.pushWrite(w)
			if accepted != nil {
				accepted()
			}
		}
		c.tryRelease()
		c.drainFLWB()
	} else {
		// Stalled on an SLWB slot; pump() retries when one frees.
		c.draining = false
	}
}

// processWrite applies one buffered write at the SLC. It returns false when
// the write needs an SLWB slot and none is free.
func (c *CacheCtl) processWrite(w flwbWrite) bool {
	b := w.block
	if ms := c.pending(b); ms != nil {
		switch ms.kind {
		case mshrRead:
			// The block is being fetched; apply the write after the fill.
			ms.after = append(ms.after, afterAction{w: w})
			return true
		case mshrOwn:
			// Ownership already requested: merge.
			ms.nWrites++
			ms.obs = append(ms.obs, w.ob)
			ms.words = append(ms.words, w.word)
			if w.performed != nil {
				ms.performed = append(ms.performed, w.performed)
			}
			return true
		}
		// mshrUpdate: a previous combining round is in flight; this write
		// starts a new one below.
	}
	line := c.slc.Lookup(b)
	if c.wc != nil {
		return c.processWriteCW(w, line)
	}
	if line != nil && line.State == cache.Dirty {
		// Writing an exclusive copy is globally performed on the spot.
		line.Written = true
		c.performLocal(b, w.word)
		if w.performed != nil {
			w.performed()
		}
		c.completeObs([]int{w.ob})
		return true
	}
	// Shared or absent: request ownership. The local copy (if any) is
	// updated immediately; the request is buffered in the SLWB.
	if c.slwbUsed >= c.sys.P.SLWBEntries {
		return false
	}
	ms := c.newMSHR(b, mshrOwn)
	ms.countsSLWB, ms.nWrites = true, 1
	ms.obs = append(ms.obs, w.ob)
	ms.words = append(ms.words, w.word)
	ms.txn = c.beginSpan(b, telemetry.SpanOwnership)
	if w.performed != nil {
		ms.performed = append(ms.performed, w.performed)
	}
	c.slwbUsed++
	c.send(&Msg{Type: MsgOwnReq, Block: b, Dst: c.homeOf(b), Txn: ms.txn})
	return true
}

// processWriteCW handles a write under the competitive-update mechanism:
// writes to dirty lines proceed locally; everything else combines in the
// write cache.
func (c *CacheCtl) processWriteCW(w flwbWrite, line *cache.Line) bool {
	if w.performed != nil {
		// Only an SC processor waits for its writes to perform, and
		// Params.Validate rejects CW under SC.
		panic("core: write-cache write with a performed callback (CW under SC)")
	}
	b := w.block
	if line != nil && line.State == cache.Dirty {
		line.Written = true
		line.CWCount = int32(c.sys.P.CWThreshold)
		c.performLocal(b, w.word)
		c.completeObs([]int{w.ob})
		return true
	}
	// Victimizing another block's write-cache entry issues its update,
	// which needs an SLWB slot.
	if c.wc.WouldEvict(b) && c.slwbUsed >= c.sys.P.SLWBEntries {
		return false
	}
	victim, evicted := c.wc.Write(b, w.word)
	if ck := c.sys.Check; ck != nil {
		if evicted {
			ck.OnWCFlush(c.id, victim.Block, victim.Mask, "evict")
		}
		mask, _ := c.wc.Lookup(b)
		ck.OnWCWrite(c.id, b, w.word, mask)
	}
	obs, ok := c.wcObs[b]
	if n := len(c.obsFree); !ok && n > 0 {
		obs = c.obsFree[n-1]
		c.obsFree = c.obsFree[:n-1]
	}
	c.wcObs[b] = append(obs, w.ob)
	if line != nil {
		line.LocallyModified = true
		line.CWCount = int32(c.sys.P.CWThreshold)
	}
	if evicted {
		obs := c.wcObs[victim.Block]
		delete(c.wcObs, victim.Block)
		c.doFlush(victim, obs)
	}
	if len(c.relQueue) > 0 {
		// A release is waiting; a prior write must not linger unflushed in
		// the write cache, or the release would never see it performed.
		if e, ok := c.wc.Remove(b); ok {
			if ck := c.sys.Check; ck != nil {
				ck.OnWCFlush(c.id, b, e.Mask, "release-drain")
			}
			obs := c.wcObs[b]
			delete(c.wcObs, b)
			c.doFlush(e, obs)
		}
	}
	return true
}

func (c *CacheCtl) deferWrite(w flwbWrite) {
	c.deferredWrites = append(c.deferredWrites, w)
	c.pump()
}

// doFlush issues the combined update for one victimized or drained
// write-cache entry, carrying the obligations its writes represent. It
// takes over obs, the entry's slice removed from wcObs.
func (c *CacheCtl) doFlush(e cache.WCEntry, obs []int) {
	if ms := c.pending(e.Block); ms != nil {
		// A transaction is in flight for this block; issue the update when
		// it completes.
		ms.after = append(ms.after, afterAction{flush: true, e: e, obs: obs})
		return
	}
	// Release-time drains may transiently exceed the SLWB capacity; the
	// processor is not waiting, so this only models a stalled drain.
	ms := c.newMSHR(e.Block, mshrUpdate)
	ms.countsSLWB, ms.mask = true, e.Mask
	ms.obs = append(ms.obs, obs...)
	c.obsFree = append(c.obsFree, obs[:0])
	ms.txn = c.beginSpan(e.Block, telemetry.SpanUpdate)
	c.slwbUsed++
	c.send(&Msg{Type: MsgUpdateReq, Block: e.Block, Dst: c.homeOf(e.Block), Mask: e.Mask, Txn: ms.txn})
}

// pump retries work that was waiting for an SLWB slot or a fill.
func (c *CacheCtl) pump() {
	if len(c.deferredWrites) > 0 {
		pending := c.deferredWrites
		c.deferredWrites = nil
		for i, w := range pending {
			if !c.processWrite(w) {
				c.deferredWrites = append(c.deferredWrites, pending[i:]...)
				break
			}
		}
	}
	c.drainFLWB()
	c.tryRelease()
}

// Acquire sends a lock request; unblock runs at the grant.
func (c *CacheCtl) Acquire(a memsys.Addr, unblock func()) {
	b := memsys.BlockOf(a)
	if c.lockWaiters[b] != nil {
		panic("core: overlapping acquires of one lock by one processor")
	}
	c.lockWaiters[b] = unblock
	c.send(&Msg{Type: MsgLockReq, Block: b, Dst: c.homeOf(b)})
}

// Release queues a lock release. Under release consistency the processor
// continues immediately (the release sits in the SLWB behind the writes it
// must wait for); under sequential consistency unblock runs when the home
// acknowledges the release.
func (c *CacheCtl) Release(a memsys.Addr, unblock func()) bool {
	b := memsys.BlockOf(a)
	r := relReq{kind: relLock, lock: b}
	proceed := true
	if c.sys.P.SC {
		r.ack = unblock
		proceed = false
	}
	c.enqueueFence(r)
	return proceed
}

// enqueueFence drains the write cache (its contents are all prior writes)
// and queues the release or barrier behind every obligation issued so far.
func (c *CacheCtl) enqueueFence(r relReq) {
	if c.wc != nil {
		for _, e := range c.wc.DrainAll() {
			if ck := c.sys.Check; ck != nil {
				ck.OnWCFlush(c.id, e.Block, e.Mask, "fence-drain")
			}
			obs := c.wcObs[e.Block]
			delete(c.wcObs, e.Block)
			c.doFlush(e, obs)
		}
	}
	r.mark = c.nextOb
	r.remaining = c.liveObs
	c.relQueue = append(c.relQueue, r)
	c.tryRelease()
}

// Barrier queues a barrier arrival, which has release semantics: all prior
// writes must be performed before the arrival is sent. unblock runs when
// the barrier opens.
func (c *CacheCtl) Barrier(id int, unblock func()) {
	if c.barWaiters[id] != nil {
		panic("core: overlapping barrier arrivals")
	}
	c.barWaiters[id] = unblock
	c.enqueueFence(relReq{kind: relBarrier, barID: id})
}

// tryRelease issues queued releases and barrier arrivals whose prior
// writes have all been globally performed. Writes issued after a fence
// never delay it.
func (c *CacheCtl) tryRelease() {
	for len(c.relQueue) > 0 {
		if c.relQueue[0].remaining > 0 {
			return
		}
		r := c.relQueue[0]
		c.relQueue = c.relQueue[:copy(c.relQueue, c.relQueue[1:])]
		switch r.kind {
		case relLock:
			if r.ack != nil {
				c.relAckWaiters = append(c.relAckWaiters, r.ack)
			}
			c.send(&Msg{Type: MsgLockRel, Block: r.lock, Dst: c.homeOf(r.lock)})
		case relBarrier:
			c.send(&Msg{Type: MsgBarArrive, BarID: int32(r.barID), Dst: int8(r.barID % c.sys.P.Nodes)})
		}
	}
}

// ---------- Message handling ----------

// slcJob is one pooled SLC-occupancy event: either a delivered protocol
// message awaiting its SLC access (handler != nil) or a blocked processor
// read (handler == nil). Jobs come from System.slcJobs, shared by every
// cache controller of the run, so the two hottest cache-controller
// scheduling patterns allocate nothing once warm; idx names a job there.
// The job holds the message by value: the delivered *Msg is valid only
// until Handle returns.
type slcJob struct {
	c       *CacheCtl
	handler func(*CacheCtl, *Msg)
	m       Msg

	block   memsys.Block
	word    int
	unblock func()
	idx     int32
}

func (c *CacheCtl) getJob() *slcJob {
	i, j := c.sys.slcJobs.get()
	j.c, j.idx = c, i
	return j
}

func (c *CacheCtl) putJob(j *slcJob) {
	j.handler, j.unblock = nil, nil
	c.sys.slcJobs.put(j.idx)
}

// runMsgJob completes a message's SLC access and runs its handler. The job
// is recycled only once the handler has returned: the handler reads the
// message in place.
func runMsgJob(a any) {
	j := a.(*slcJob)
	j.handler(j.c, &j.m)
	j.c.putJob(j)
}

// runReadJob completes a blocked read's SLC access.
func runReadJob(a any) {
	j := a.(*slcJob)
	c, b, word, unblock := j.c, j.block, j.word, j.unblock
	c.putJob(j)
	c.readSLC(b, word, unblock)
}

// slcHandle schedules handler(c, m) after the SLC's pipelined access.
func (c *CacheCtl) slcHandle(m *Msg, handler func(*CacheCtl, *Msg)) {
	j := c.getJob()
	j.handler, j.m = handler, *m
	t := c.sys.P.Timing
	c.slcRes.UsePipelinedCall(t.SLCCycle, t.SLCAccess, runMsgJob, j)
}

// Handle processes one incoming coherence or synchronization message.
func (c *CacheCtl) Handle(m *Msg) {
	switch m.Type {
	case MsgReadReply:
		c.slcHandle(m, (*CacheCtl).onReadReply)
	case MsgOwnAck:
		c.slcHandle(m, (*CacheCtl).onOwnAck)
	case MsgUpdateAck:
		c.slcHandle(m, (*CacheCtl).onUpdateAck)
	case MsgInv:
		c.slcHandle(m, (*CacheCtl).onInv)
	case MsgFwd:
		c.slcHandle(m, (*CacheCtl).onFwd)
	case MsgUpdCopy:
		c.slcHandle(m, (*CacheCtl).onUpdCopy)
	case MsgPrefNack:
		c.onPrefNack(m)
	case MsgWBAck:
		c.onWBAck(m)
	case MsgLockGrant:
		w := c.lockWaiters[m.Block]
		if w == nil {
			panic(fmt.Sprintf("cache %d: lock grant with no waiter", c.id))
		}
		delete(c.lockWaiters, m.Block)
		w()
	case MsgRelAck:
		if len(c.relAckWaiters) == 0 {
			panic(fmt.Sprintf("cache %d: release ack with no waiter", c.id))
		}
		w := c.relAckWaiters[0]
		n := copy(c.relAckWaiters, c.relAckWaiters[1:])
		c.relAckWaiters[n] = nil
		c.relAckWaiters = c.relAckWaiters[:n]
		w()
	case MsgBarGo:
		w := c.barWaiters[int(m.BarID)]
		if w == nil {
			panic(fmt.Sprintf("cache %d: barrier go with no waiter", c.id))
		}
		delete(c.barWaiters, int(m.BarID))
		w()
	default:
		panic(fmt.Sprintf("cache %d: unexpected message %v", c.id, m.Type))
	}
}

// removeLine invalidates block b for a coherence reason, maintaining FLC
// inclusion, the miss classifier and prefetch accounting. A *cache.Line for
// b must not be used after it.
func (c *CacheCtl) removeLine(b memsys.Block) {
	line, ok := c.slc.Invalidate(b)
	if !ok {
		return
	}
	c.sys.traceNode(trace.CacheEvict, "inval", b, c.id, line.State.String())
	c.ckDrop(b, "inval")
	if c.statsOn() && c.sys.Shr != nil {
		c.sys.Shr.OnInvalidate(uint64(b))
	}
	c.flc.Invalidate(b)
	c.Cls.Invalidate(b)
	if line.PrefetchBit && c.pf != nil {
		c.pf.OnDiscard()
	}
}

// install fills block b in state st, handling any victim, and returns its
// line, whose words start at zero.
func (c *CacheCtl) install(b memsys.Block, st cache.LineState) *cache.Line {
	c.sys.traceNode(trace.CacheFill, st.String(), b, c.id, "")
	line, victim, evicted := c.slc.Insert(b, st)
	if evicted {
		c.handleVictim(victim)
	}
	c.Cls.Fill(b)
	c.ckLine(b, st == cache.Dirty, "install")
	return line
}

func (c *CacheCtl) handleVictim(v cache.Victim) {
	c.sys.traceNode(trace.CacheEvict, "replace", v.Block, c.id, v.State.String())
	c.ckDrop(v.Block, "replace")
	c.flc.Invalidate(v.Block)
	c.Cls.Evict(v.Block)
	if v.PrefetchBit && c.pf != nil {
		c.pf.OnDiscard()
	}
	if v.State == cache.Dirty {
		c.writeBack(v.Block, v.Grant, v.Words, memsys.FullMask)
	}
}

// wbFind returns the index of block b's writeback-buffer record, or -1.
func (c *CacheCtl) wbFind(b memsys.Block) int {
	for i := range c.wb {
		if c.wb[i].block == b {
			return i
		}
	}
	return -1
}

// writeBack returns the masked words of block b, held under grant
// generation stamp, to its home through the writeback buffer.
func (c *CacheCtl) writeBack(b memsys.Block, stamp int32, data memsys.BlockData, mask memsys.WordMask) {
	if i := c.wbFind(b); i >= 0 {
		// The previous writeback of this block has not been acknowledged
		// yet (ownership cycled back in between); queue a fresh one behind
		// it.
		w := &c.wb[i]
		w.data, w.mask, w.requeued, w.stamp = data, mask, true, stamp
		return
	}
	c.wb = append(c.wb, wbEntry{block: b, data: data, mask: mask})
	c.send(&Msg{Type: MsgWBReq, Block: b, Dst: c.homeOf(b), Data: true, Stamp: stamp, Payload: data, Mask: mask})
}

func (c *CacheCtl) onReadReply(m *Msg) {
	b := m.Block
	ms := c.pending(b)
	if ms == nil || ms.kind != mshrRead {
		panic(fmt.Sprintf("cache %d: read reply with no pending read for block %d", c.id, b))
	}
	c.closeMSHR(ms)
	if ms.countsSLWB {
		c.slwbUsed--
	}
	c.endSpan(ms.txn)
	st := cache.Shared
	if m.Excl {
		st = cache.Dirty
	}
	line := c.install(b, st)
	c.setWords(b, &m.Payload)
	if m.Excl {
		line.MigSupplied = true
		line.Grant = m.Stamp
	}
	if c.wc != nil {
		// A prefetch is not a processor access: an unreferenced prefetched
		// copy arrives with its competitive counter exhausted, so a foreign
		// update reclaims it instead of feeding it updates it never earned.
		if ms.prefetchOnly {
			line.CWCount = 0
		} else {
			line.CWCount = int32(c.sys.P.CWThreshold)
		}
		if _, ok := c.wc.Lookup(b); ok {
			line.LocallyModified = true
		}
	}
	if ms.prefetchOnly {
		line.PrefetchBit = true
		if c.pf != nil {
			c.pf.OnFill()
		}
	} else {
		if m.Prefetch && c.pf != nil {
			// Issued as a prefetch, promoted to a demand fetch in flight.
			c.pf.OnFill()
		}
		c.fillFLC(b)
		if ms.timed && c.statsOn() {
			lat := int64(c.sys.Eng.Now() - ms.missStart)
			c.CStats.ReadMissLatency += lat
			c.CStats.ReadMissCount++
			c.sys.MissLatency.Add(lat)
			if c.sys.Shr != nil {
				c.sys.Shr.OnMissLatency(uint64(b), lat)
			}
		}
		for _, r := range ms.readers {
			c.observeCached(b, r.word)
			r.fn()
		}
	}
	c.runAfter(ms)
	c.retireMSHR(ms)
	c.pump()
}

func (c *CacheCtl) runAfter(ms *mshr) {
	for _, a := range ms.after {
		if a.flush {
			c.doFlush(a.e, a.obs)
		} else {
			c.deferWrite(a.w)
		}
	}
}

func (c *CacheCtl) onOwnAck(m *Msg) {
	b := m.Block
	ms := c.pending(b)
	if ms == nil || ms.kind != mshrOwn {
		panic(fmt.Sprintf("cache %d: ownership ack with no pending request for block %d", c.id, b))
	}
	c.closeMSHR(ms)
	c.slwbUsed--
	c.completeObs(ms.obs)
	c.endSpan(ms.txn)
	var line *cache.Line
	if m.Data {
		line = c.install(b, cache.Dirty)
		c.setWords(b, &m.Payload)
	} else {
		line = c.slc.Lookup(b)
		if line == nil {
			// The Shared copy was silently victimized by a conflicting fill
			// while the upgrade was in flight, so we received ownership of a
			// block whose frame is gone. Retire the writes and immediately
			// write the block back; any waiting readers re-fetch it (their
			// request queues at home behind the writeback).
			c.relinquishLostOwnership(b, ms, m.Stamp)
			return
		}
		line.State = cache.Dirty
		c.ckLine(b, true, "own-upgrade")
	}
	line.Grant = m.Stamp
	line.Written = true
	if d := c.slc.Words(b); d != nil {
		for _, w := range ms.words {
			d[w] = c.sys.serialize(c.id, b, w)
		}
	}
	for _, p := range ms.performed {
		p()
	}
	if len(ms.readers) > 0 {
		c.fillFLC(b)
		for _, r := range ms.readers {
			c.observeCached(b, r.word)
			r.fn()
		}
	}
	c.runAfter(ms)
	c.retireMSHR(ms)
	c.pump()
}

// relinquishLostOwnership handles an exclusive grant (of generation stamp)
// for a block whose cache frame was lost to replacement while the request
// was pending.
func (c *CacheCtl) relinquishLostOwnership(b memsys.Block, ms *mshr, stamp int32) {
	for _, p := range ms.performed {
		p()
	}
	// The frame is gone, but the transaction's writes still serialize here:
	// version them into a masked writeback so home memory picks them up.
	var payload memsys.BlockData
	var mask memsys.WordMask
	if c.sys.verSeq != nil {
		for _, w := range ms.words {
			mask = mask.Set(w)
			payload[w] = c.sys.serialize(c.id, b, w)
		}
		for w := 0; w < memsys.WordsPerBlock; w++ {
			if ms.mask.Has(w) {
				mask = mask.Set(w)
				payload[w] = c.sys.serialize(c.id, b, w)
			}
		}
	}
	// If a writeback is already in flight (the grant crossed it on the
	// wire), it is stale with respect to this grant — the home will drop
	// it — so writeBack queues a fresh one behind its acknowledgment.
	c.writeBack(b, stamp, payload, mask)
	if len(ms.readers) > 0 {
		// The readers' wait continues under a fresh span: the old
		// transaction is over, this is a new fetch.
		c.refetch(b, ms.readers)
	}
	c.runAfter(ms)
	c.retireMSHR(ms)
	c.pump()
}

// refetch launches a new read transaction for block b on behalf of readers
// whose transaction ended without leaving them a copy. The readers are
// copied: their old record is about to be recycled.
func (c *CacheCtl) refetch(b memsys.Block, readers []readerWait) {
	ms := c.newMSHR(b, mshrRead)
	ms.readers = append(ms.readers, readers...)
	ms.txn = c.beginSpan(b, telemetry.SpanRead)
	c.send(&Msg{Type: MsgReadReq, Block: b, Dst: c.homeOf(b), Txn: ms.txn})
}

func (c *CacheCtl) onUpdateAck(m *Msg) {
	b := m.Block
	ms := c.pending(b)
	if ms == nil || ms.kind != mshrUpdate {
		panic(fmt.Sprintf("cache %d: update ack with no pending update for block %d", c.id, b))
	}
	c.closeMSHR(ms)
	c.slwbUsed--
	c.completeObs(ms.obs)
	c.endSpan(ms.txn)
	if m.Excl {
		var line *cache.Line
		if m.Data {
			line = c.install(b, cache.Dirty)
			c.setWords(b, &m.Payload)
		} else if line = c.slc.Lookup(b); line != nil {
			line.State = cache.Dirty
			c.ckLine(b, true, "update-upgrade")
			if d := c.slc.Words(b); d != nil {
				// The owner's combined writes serialize here.
				for w := 0; w < memsys.WordsPerBlock; w++ {
					if ms.mask.Has(w) {
						d[w] = c.sys.serialize(c.id, b, w)
					}
				}
			}
		} else {
			// Exclusivity granted for a frame lost to replacement: give the
			// block straight back (see relinquishLostOwnership).
			c.relinquishLostOwnership(b, ms, m.Stamp)
			return
		}
		line.Grant = m.Stamp
		line.Written = true
		line.CWCount = int32(c.sys.P.CWThreshold)
	} else if line := c.slc.Lookup(b); line != nil {
		// Non-exclusive completion: refresh our Shared copy with the
		// post-update memory image (it now carries our own writes'
		// serialized versions). The FLC copy already holds those writes
		// (write-through), so it stays.
		c.setWords(b, &m.Payload)
	}
	if len(ms.readers) > 0 {
		if line := c.slc.Lookup(b); line != nil {
			c.fillFLC(b)
			for _, r := range ms.readers {
				c.observeCached(b, r.word)
				r.fn()
			}
		} else {
			// The update completed without leaving us a copy; fetch one for
			// the waiting readers.
			c.refetch(b, ms.readers)
		}
	}
	c.runAfter(ms)
	c.retireMSHR(ms)
	c.pump()
}

func (c *CacheCtl) onInv(m *Msg) {
	c.removeLine(m.Block)
	c.send(&Msg{Type: MsgInvAck, Block: m.Block, Dst: m.Src})
}

func (c *CacheCtl) onFwd(m *Msg) {
	b := m.Block
	home := m.Src
	line := c.slc.Lookup(b)
	if line == nil {
		if i := c.wbFind(b); i >= 0 {
			// The line was victimized; serve the forward from the
			// writeback buffer. The in-flight WBReq will be stale at home.
			c.send(&Msg{Type: MsgFwdReply, Block: b, Dst: home, Data: true, Wrote: true,
				Payload: c.wb[i].data, Mask: c.wb[i].mask, Txn: m.Txn})
			return
		}
		panic(fmt.Sprintf("cache %d: forward for absent block %d", c.id, b))
	}
	switch {
	case m.Excl:
		// Exclusive takeaway (write miss elsewhere, or update recall).
		data := c.lineWords(b)
		c.removeLine(b)
		c.send(&Msg{Type: MsgFwdReply, Block: b, Dst: home, Data: true, Wrote: true, Payload: data, Txn: m.Txn})
	case m.Mig:
		// Migratory read: hand the block over if we wrote it; otherwise
		// report that the pattern stopped being migratory and keep a
		// shared copy.
		if line.Written {
			data := c.lineWords(b)
			c.removeLine(b)
			c.send(&Msg{Type: MsgFwdReply, Block: b, Dst: home, Data: true, Wrote: true, Payload: data, Txn: m.Txn})
		} else {
			line.State = cache.Shared
			line.MigSupplied = false
			c.ckLine(b, false, "mig-keep")
			c.send(&Msg{Type: MsgFwdReply, Block: b, Dst: home, Data: true, Wrote: false, Payload: c.lineWords(b), Txn: m.Txn})
		}
	default:
		// Ordinary read miss: downgrade to Shared.
		line.State = cache.Shared
		line.Written = false
		c.ckLine(b, false, "downgrade")
		c.send(&Msg{Type: MsgFwdReply, Block: b, Dst: home, Data: true, Wrote: true, Payload: c.lineWords(b), Txn: m.Txn})
	}
}

func (c *CacheCtl) onUpdCopy(m *Msg) {
	b := m.Block
	if c.statsOn() && c.sys.Shr != nil {
		c.sys.Shr.OnUpdate(uint64(b))
	}
	reply := &Msg{Type: MsgUpdAck, Block: b, Dst: m.Src}
	line := c.slc.Lookup(b)
	switch {
	case line == nil:
		// Silently replaced earlier; tell home to clear our presence bit.
		reply.Removed = true
		reply.GaveUp = true
	case m.Probe && line.LocallyModified:
		// CW+M interrogation: we modified the block since the last home
		// update, so we give up our copy (paper §3.4).
		c.removeLine(b)
		reply.Removed = true
		reply.GaveUp = true
	default:
		// Competitive counting: the counter is preset to the threshold at
		// every local access and decremented per foreign update; an update
		// arriving after it is exhausted — i.e. more than `threshold`
		// updates with no intervening local access — invalidates the copy
		// and stops the update stream. A processor that keeps reading the
		// block keeps its copy, which is how CW removes producer-consumer
		// coherence misses while still cutting off caches that lost
		// interest.
		if line.CWCount <= 0 {
			c.removeLine(b)
			reply.Removed = true
		} else {
			line.CWCount--
			// Apply the update and stay a sharer. The FLC copy is stale
			// now; inclusion demands it be invalidated, so the processor's
			// next access reaches the SLC (and presets the counter).
			c.flc.Invalidate(b)
			line.LocallyModified = false
			c.setWords(b, &m.Payload)
		}
	}
	c.send(reply)
}

func (c *CacheCtl) onPrefNack(m *Msg) {
	b := m.Block
	ms := c.pending(b)
	if ms == nil || ms.kind != mshrRead {
		panic(fmt.Sprintf("cache %d: prefetch nack with no pending read for block %d", c.id, b))
	}
	if !ms.prefetchOnly {
		// A demand reference merged with the prefetch while the nack was in
		// flight; reissue it as a demand read, which is never nacked. The
		// span continues: it is still the same logical fetch.
		c.send(&Msg{Type: MsgReadReq, Block: b, Dst: c.homeOf(b), Txn: ms.txn})
		return
	}
	c.closeMSHR(ms)
	if ms.countsSLWB {
		c.slwbUsed--
	}
	c.endSpan(ms.txn)
	if c.pf != nil {
		c.pf.Stats.Nacked++
	}
	c.runAfter(ms)
	c.retireMSHR(ms)
	c.pump()
}

func (c *CacheCtl) onWBAck(m *Msg) {
	i := c.wbFind(m.Block)
	if i < 0 {
		panic(fmt.Sprintf("cache %d: writeback ack with no pending writeback for block %d", c.id, m.Block))
	}
	if w := &c.wb[i]; w.requeued {
		w.requeued = false
		c.send(&Msg{Type: MsgWBReq, Block: m.Block, Dst: c.homeOf(m.Block), Data: true, Stamp: w.stamp,
			Payload: w.data, Mask: w.mask})
	} else {
		last := len(c.wb) - 1
		c.wb[i] = c.wb[last]
		c.wb = c.wb[:last]
	}
	c.pump()
}
