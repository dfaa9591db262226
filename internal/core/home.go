package core

import (
	"fmt"
	"math/bits"
	"strconv"

	"ccsim/internal/memsys"
	"ccsim/internal/syncprim"
	"ccsim/internal/telemetry"
	"ccsim/internal/trace"
)

// dirState is a memory block's stable directory state. The paper's three
// transient states are represented by the entry's busy flag plus the
// transaction record; requests arriving at a busy entry are deferred, which
// serializes transactions per block exactly as a real home controller does.
type dirState uint8

const (
	dirClean    dirState = iota // the memory copy is valid
	dirModified                 // exactly one cache holds the exclusive copy
)

// txnKind identifies the in-flight transaction at a busy entry.
type txnKind uint8

const (
	txNone   txnKind = iota
	txMem            // simple memory access in progress
	txFwd            // waiting for the dirty owner's FwdReply (read miss)
	txInv            // waiting for invalidation acks (ownership grant)
	txUpd            // waiting for update acks (competitive update fanout)
	txRecall         // waiting for the owner's copy to serve an update
)

// dirEntry is the directory state of one memory block: the full-map
// presence vector and stable state of BASIC (paper §2), plus the migratory
// bit, last-writer pointer and last-updater pointer the M and CW+M
// extensions add (paper §3.2, §3.4). Entries live by value in the home's
// block table, one per block of every page the home touches, so an entry
// keeps only what outlives a transaction: 24 bytes and no pointers, which
// the collector never scans. What a transaction needs while it runs lives
// in a pooled txnRec that rec names. seen marks an entry the home has
// received a request for. Node numbers fit an int8 (Params.Validate caps
// Nodes at 64).
type dirEntry struct {
	presence uint64 // bit i set: node i may hold a copy

	// grants counts exclusive-ownership grants; a writeback request is
	// only current if no grant intervened since it arrived (otherwise
	// ownership cycled — possibly back to the same cache — while the stale
	// writeback sat deferred).
	grants int32

	// rec names the entry's transaction record in System.txns while a
	// transaction is in flight or requests are queued, and is 0 once the
	// entry is quiet again (see HomeCtl.finish).
	rec int32

	owner       int8 // valid when state == dirModified
	lastWriter  int8 // M extension
	lastUpdater int8 // CW+M extension
	state       dirState

	seen bool
	busy bool
	// overflow marks a limited-pointer entry whose sharer count exceeded
	// the pointer budget: coherence actions must broadcast.
	overflow  bool
	migratory bool
}

// txnRec is the transaction context of one directory entry: everything
// valid only while the entry is busy or has queued requests. A record is
// attached when its entry first goes busy or parks a request, and released
// once the entry is quiet again, so the home keeps one per block with
// work pending rather than one per block it serves. req, deferred and
// parked hold pooled request records (see HomeCtl.hold): a request
// outlives the handler that delivered it.
type txnRec struct {
	req      *heldReq // the in-flight request (valid while busy)
	deferred reqQueue // requests awaiting the current transaction
	parked   reqQueue // requests from the registered owner, awaiting its writeback

	acksLeft int32
	txn      txnKind
	needData bool
	gaveUp   bool // CW+M probe: all interrogated caches surrendered
	probing  bool
}

// heldReq is a pooled request record: a delivered request copied to live on
// as deferred, parked or in-flight state after its handler returns (see
// HomeCtl.hold). next links it into one reqQueue; idx names it in
// System.reqs.
type heldReq struct {
	Msg
	next *heldReq
	idx  int32
}

// reqQueue is a FIFO of held requests linked through their records, so
// queueing a request allocates nothing.
type reqQueue struct{ head, tail *heldReq }

func (q *reqQueue) empty() bool { return q.head == nil }

func (q *reqQueue) push(r *heldReq) {
	r.next = nil
	if q.tail == nil {
		q.head = r
	} else {
		q.tail.next = r
	}
	q.tail = r
}

func (q *reqQueue) pop() *heldReq {
	r := q.head
	q.head = r.next
	if q.head == nil {
		q.tail = nil
	}
	r.next = nil
	return r
}

// prepend moves every request of p, in order, ahead of q's and empties p.
func (q *reqQueue) prepend(p *reqQueue) {
	if p.head == nil {
		return
	}
	p.tail.next = q.head
	if q.tail == nil {
		q.tail = p.tail
	}
	q.head = p.head
	*p = reqQueue{}
}

// len counts the queued requests (diagnostics only: it walks the queue).
func (q *reqQueue) len() int {
	n := 0
	for r := q.head; r != nil; r = r.next {
		n++
	}
	return n
}

// HomeCtl is the directory controller of one node, serving the memory
// blocks homed there plus the queue-based locks and barriers stored in its
// memory.
type HomeCtl struct {
	sys *System
	id  int

	dir      memsys.Table[dirEntry]
	locks    map[memsys.Block]*syncprim.Lock
	barriers map[int32]*syncprim.Barrier

	// Statistics.
	ReadReqs, OwnReqs, UpdateReqs, Writebacks uint64
	PointerOverflows                          uint64
	BroadcastInvalidations                    uint64
	MigratoryDetections                       uint64
	MigratoryReverts                          uint64
	ExclusiveSupplies                         uint64
	StaleWritebacks                           uint64
}

func newHomeCtl(s *System, id int) *HomeCtl {
	return &HomeCtl{
		sys:      s,
		id:       id,
		locks:    make(map[memsys.Block]*syncprim.Lock),
		barriers: make(map[int32]*syncprim.Barrier),
	}
}

// entry returns block b's directory entry, initializing it on first use.
func (h *HomeCtl) entry(b memsys.Block) *dirEntry {
	e := h.dir.At(b)
	if !e.seen {
		e.seen = true
		e.owner, e.lastWriter, e.lastUpdater = -1, -1, -1
	}
	return e
}

// lookup returns block b's directory entry, or nil when the home has never
// seen the block. It never allocates.
func (h *HomeCtl) lookup(b memsys.Block) *dirEntry {
	if e := h.dir.Get(b); e != nil && e.seen {
		return e
	}
	return nil
}

func bit(n int) uint64 { return 1 << uint(n) }

// ckDir reports block b's directory entry to the live checker after a
// transition. One nil check when the checker is off.
func (h *HomeCtl) ckDir(b memsys.Block, e *dirEntry, event string) {
	if ck := h.sys.Check; ck != nil {
		ck.OnDirState(h.id, b, e.state == dirModified, int(e.owner), e.presence, event)
	}
}

// addSharer records node n as a sharer, degrading a limited-pointer entry
// to broadcast mode when the pointer budget overflows.
func (h *HomeCtl) addSharer(e *dirEntry, n int) {
	e.presence |= bit(n)
	if ptrs := h.sys.P.DirPointers; ptrs > 0 && !e.overflow &&
		bits.OnesCount64(e.presence) > ptrs {
		e.overflow = true
		h.PointerOverflows++
	}
}

// applyUpdate serializes a combined update's writes into memory: each
// masked word gets the next version for its location. This is the
// competitive-update mechanism's global serialization point.
func (h *HomeCtl) applyUpdate(m *Msg) {
	if h.sys.verSeq == nil {
		return
	}
	b := m.Block
	for w := 0; w < memsys.WordsPerBlock; w++ {
		if m.Mask.Has(w) {
			v := h.sys.serialize(int(m.Src), b, w)
			h.sys.verSeq.At(b).mem[w] = v
		}
	}
}

// setPresence replaces the presence set wholesale (ownership transfers,
// reverts) and recomputes the limited-pointer overflow state.
func (h *HomeCtl) setPresence(e *dirEntry, mask uint64) {
	e.presence = mask
	ptrs := h.sys.P.DirPointers
	over := ptrs > 0 && bits.OnesCount64(mask) > ptrs
	if over && !e.overflow {
		h.PointerOverflows++
	}
	e.overflow = over
}

// sharersFor returns the nodes a coherence action must reach, excluding
// the requester: the tracked sharers under a full map, or everyone when a
// limited-pointer entry has overflowed.
func (h *HomeCtl) sharersFor(e *dirEntry, requester int) uint64 {
	if e.overflow {
		all := uint64(1)<<uint(h.sys.P.Nodes) - 1
		return all &^ bit(requester)
	}
	return e.presence &^ bit(requester)
}

// grant makes node n the block's exclusive owner and last writer: one
// more exclusive-ownership grant.
func (h *HomeCtl) grant(e *dirEntry, n int) {
	e.state = dirModified
	e.owner = int8(n)
	h.setPresence(e, bit(n))
	e.lastWriter = int8(n)
	e.grants++
}

// quiet reports whether no transaction is in flight or queued at e.
func (e *dirEntry) quiet() bool { return !e.busy && e.rec == 0 }

// txn returns e's transaction record; e must have one (busy, or requests
// queued).
func (h *HomeCtl) txn(e *dirEntry) *txnRec { return h.sys.txns.at(e.rec) }

// inFlight returns the kind of transaction in flight at e (txNone when e
// is not busy).
func (h *HomeCtl) inFlight(e *dirEntry) txnKind {
	if !e.busy {
		return txNone
	}
	return h.txn(e).txn
}

// idle reports whether no transaction is in flight at this home.
func (h *HomeCtl) idle() bool {
	idle := true
	h.dir.ForEach(func(_ memsys.Block, e *dirEntry) {
		if !e.quiet() {
			idle = false
		}
	})
	return idle
}

// hold copies a delivered request into a pooled record: a request lives on
// as deferred, parked or in-flight state after its handler returns, and
// the delivered *Msg does not. finish releases the record.
func (h *HomeCtl) hold(m *Msg) *heldReq {
	i, r := h.sys.reqs.get()
	r.Msg, r.next, r.idx = *m, nil, i
	return r
}

// Handle processes one incoming message.
func (h *HomeCtl) Handle(m *Msg) {
	switch m.Type {
	case MsgReadReq, MsgOwnReq, MsgUpdateReq, MsgWBReq:
		e := h.entry(m.Block)
		r := h.hold(m)
		if e.busy {
			h.txn(e).deferred.push(r)
			return
		}
		h.process(r, e)
	case MsgInvAck:
		h.onInvAck(m)
	case MsgFwdReply:
		h.onFwdReply(m)
	case MsgUpdAck:
		h.onUpdAck(m)
	case MsgLockReq, MsgLockRel:
		h.onLock(m)
	case MsgBarArrive:
		h.onBarrier(m)
	default:
		panic(fmt.Sprintf("home %d: unexpected message %v", h.id, m.Type))
	}
}

// process starts a transaction for a request at a non-busy entry,
// attaching a transaction record if the entry has none. All requests first
// access the (fully interleaved) memory, which holds both the directory and
// the data.
func (h *HomeCtl) process(m *heldReq, e *dirEntry) {
	if e.rec == 0 {
		e.rec, _ = h.sys.txns.get()
	}
	t := h.txn(e)
	// A read or ownership request from the registered exclusive owner can
	// only mean the owner's writeback is still in flight. Park it until the
	// writeback arrives. (Updates from the owner are handled directly in
	// updateReq: they carry writes that were combined before the owner
	// became exclusive.)
	if e.state == dirModified && e.owner == m.Src &&
		(m.Type == MsgReadReq || m.Type == MsgOwnReq) {
		t.parked.push(m)
		return
	}
	e.busy = true
	t.txn = txMem
	t.req = m
	// The request's queueing behind a busy entry ends here; the memory
	// access it now performs ends at memDone below.
	h.sys.tmark(m.Txn, telemetry.PhaseDirWait)
	j := h.getJob()
	j.e = e
	h.sys.Eng.AfterCall(h.sys.P.Timing.MemAccess, memDone, j)
}

// homeJob carries one memory access through the pooled event path: a
// request's directory lookup (memDone), a forward reply's write-back
// (fwdWritten), or a lock or barrier operation (lockDone, barrierDone).
// Jobs come from System.homeJobs, shared by every home of the run, and idx
// names a job there. A job holds the message it serves by value, since the
// delivered *Msg is valid only until Handle returns; memDone needs none,
// its request being in the entry's transaction record.
type homeJob struct {
	h   *HomeCtl
	e   *dirEntry
	m   Msg
	idx int32
}

func (h *HomeCtl) getJob() *homeJob {
	i, j := h.sys.homeJobs.get()
	j.h, j.idx = h, i
	return j
}

func (h *HomeCtl) putJob(j *homeJob) {
	j.e = nil
	h.sys.homeJobs.put(j.idx)
}

// memDone completes a request's memory access and dispatches it to the
// directory handler for its type.
func memDone(a any) {
	j := a.(*homeJob)
	h, e := j.h, j.e
	h.putJob(j)
	t := h.txn(e)
	m := &t.req.Msg
	h.sys.tmark(m.Txn, telemetry.PhaseMemory)
	switch m.Type {
	case MsgReadReq:
		h.readReq(m, e, t)
	case MsgOwnReq:
		h.ownReq(m, e, t)
	case MsgUpdateReq:
		h.updateReq(m, e, t)
	case MsgWBReq:
		h.wbReq(m, e, t)
	}
}

// finish ends the transaction in t, e's record: it recycles the request,
// starts the deferred requests in order until one keeps the entry busy,
// and releases the record once nothing is in flight or queued.
func (h *HomeCtl) finish(e *dirEntry, t *txnRec) {
	h.sys.reqs.put(t.req.idx)
	t.req = nil
	t.txn = txNone
	e.busy = false
	for !e.busy && !t.deferred.empty() {
		h.process(t.deferred.pop(), e)
	}
	if !e.busy && t.parked.empty() {
		*t = txnRec{}
		h.sys.txns.put(e.rec)
		e.rec = 0
	}
}

func (h *HomeCtl) send(m *Msg) {
	m.Src = int8(h.id)
	h.sys.Send(m)
}

// ---------- Read misses ----------

func (h *HomeCtl) readReq(m *Msg, e *dirEntry, t *txnRec) {
	h.ReadReqs++
	b, src := m.Block, int(m.Src)
	if e.state == dirModified {
		mig := h.sys.P.M && e.migratory
		if m.Prefetch && !mig && h.sys.P.PrefetchNackDirty {
			// A speculative fetch would steal the block from its active
			// writer; reject it. (Migratory blocks are the exception: the
			// whole point of P+M is to prefetch them exclusively.)
			h.send(&Msg{Type: MsgPrefNack, Block: b, Dst: m.Src, Txn: m.Txn})
			h.finish(e, t)
			return
		}
		// Serviced in four node-to-node transfers via the owner.
		t.txn = txFwd
		h.send(&Msg{Type: MsgFwd, Block: b, Dst: e.owner, Mig: mig, Prefetch: m.Prefetch, Txn: m.Txn})
		return
	}
	// Clean at memory: serviced in two transfers (or locally).
	if h.sys.P.M && e.migratory && e.presence&^bit(src) == 0 {
		// Migratory block with no other holder: supply an exclusive copy so
		// the follow-up write hits locally (the optimization's whole point).
		h.ExclusiveSupplies++
		e.state = dirModified
		e.owner = m.Src
		h.setPresence(e, bit(src))
		e.grants++
		h.ckDir(b, e, "excl-supply")
		h.send(&Msg{Type: MsgReadReply, Block: b, Dst: m.Src, Data: true, Excl: true, Prefetch: m.Prefetch, Stamp: e.grants, Payload: h.sys.memWords(b), Txn: m.Txn})
		h.finish(e, t)
		return
	}
	if !h.sys.takeMutation("skip-sharer") {
		h.addSharer(e, src)
	}
	h.ckDir(b, e, "read-share")
	h.send(&Msg{Type: MsgReadReply, Block: b, Dst: m.Src, Data: true, Prefetch: m.Prefetch, Payload: h.sys.memWords(b), Txn: m.Txn})
	h.finish(e, t)
}

// onFwdReply completes a transaction that needed the owner's copy.
func (h *HomeCtl) onFwdReply(m *Msg) {
	b := m.Block
	e := h.entry(b)
	if k := h.inFlight(e); k != txFwd && k != txRecall {
		panic(fmt.Sprintf("home %d: unexpected FwdReply for block %d", h.id, b))
	}
	// A forward served from a writeback buffer carries a mask: only the
	// masked words are meaningful (a relinquished frame carries just its
	// written words). Any other forward reply carries the whole block.
	mask := m.Mask
	if mask == 0 {
		mask = memsys.FullMask
	}
	h.sys.storeMem(b, &m.Payload, mask)
	// Write the returned data back to memory.
	j := h.getJob()
	j.e, j.m = e, *m
	h.sys.Eng.AfterCall(h.sys.P.Timing.MemAccess, fwdWritten, j)
}

// fwdWritten completes a forward reply's memory write-back and finishes
// the transaction that needed the owner's copy.
func fwdWritten(a any) {
	j := a.(*homeJob)
	h, e, m := j.h, j.e, &j.m
	t := h.txn(e)
	req := t.req
	b, to := req.Block, int(req.Src)
	h.sys.tmark(req.Txn, telemetry.PhaseMemory)
	switch {
	case t.txn == txRecall:
		// Recalled to serve a competitive update: apply the update and
		// hand the block to the updater exclusively.
		h.grant(e, to)
		h.applyUpdate(&req.Msg)
		h.ckDir(b, e, "recall-grant")
		h.send(&Msg{Type: MsgUpdateAck, Block: b, Dst: req.Src, Data: true, Excl: true, Stamp: e.grants, Payload: h.sys.memWords(b), Txn: req.Txn})
	case req.Type == MsgOwnReq:
		// Write miss to a dirty block: exclusive handoff.
		h.grant(e, to)
		h.ckDir(b, e, "fwd-grant")
		h.send(&Msg{Type: MsgOwnAck, Block: b, Dst: req.Src, Data: true, Stamp: e.grants, Payload: h.sys.memWords(b), Txn: req.Txn})
	case req.Type == MsgReadReq && e.migratory && h.sys.P.M:
		if m.Wrote {
			// Still migratory: pass the exclusive copy along.
			h.ExclusiveSupplies++
			h.grant(e, to)
			h.ckDir(b, e, "mig-pass")
			h.send(&Msg{Type: MsgReadReply, Block: b, Dst: req.Src, Data: true, Excl: true, Prefetch: req.Prefetch, Stamp: e.grants, Payload: h.sys.memWords(b), Txn: req.Txn})
		} else {
			// The holder never wrote its exclusive copy: the pattern is
			// no longer migratory. Revert to ordinary sharing (the
			// extra-cache-state mechanism of paper §3.2).
			h.MigratoryReverts++
			h.sys.traceNode(trace.DirTransition, "revert", b, h.id, "")
			e.migratory = false
			e.state = dirClean
			h.setPresence(e, bit(int(m.Src))|bit(to))
			h.ckDir(b, e, "revert")
			h.send(&Msg{Type: MsgReadReply, Block: b, Dst: req.Src, Data: true, Prefetch: req.Prefetch, Payload: h.sys.memWords(b), Txn: req.Txn})
		}
	default:
		// Ordinary read miss to a dirty block: owner downgraded to
		// Shared, memory updated, requester added.
		e.state = dirClean
		h.addSharer(e, to)
		h.ckDir(b, e, "fwd-downgrade")
		h.send(&Msg{Type: MsgReadReply, Block: b, Dst: req.Src, Data: true, Prefetch: req.Prefetch, Payload: h.sys.memWords(b), Txn: req.Txn})
	}
	h.finish(e, t)
	h.putJob(j)
}

// ---------- Ownership requests ----------

func (h *HomeCtl) ownReq(m *Msg, e *dirEntry, t *txnRec) {
	h.OwnReqs++
	b, src := m.Block, int(m.Src)
	if e.state == dirModified {
		// Dirty elsewhere: take the copy away from the owner.
		t.txn = txFwd
		h.send(&Msg{Type: MsgFwd, Block: b, Dst: e.owner, Excl: true, Txn: m.Txn})
		return
	}
	// Migratory detection (paper §3.2, following Stenström et al.): an
	// ownership request from a processor holding one of exactly two copies,
	// where the last writer is the other processor, marks the block
	// migratory.
	if h.sys.P.M && !e.migratory &&
		bits.OnesCount64(e.presence) == 2 && e.presence&bit(src) != 0 &&
		e.lastWriter >= 0 && e.lastWriter != m.Src {
		e.migratory = true
		h.MigratoryDetections++
		h.sys.traceNode(trace.DirTransition, "migratory", b, h.id, "")
	}
	sharers := h.sharersFor(e, src)
	t.needData = e.presence&bit(src) == 0
	if sharers == 0 {
		h.grantOwnership(b, e, t, src)
		return
	}
	if e.overflow {
		h.BroadcastInvalidations++
	}
	t.txn = txInv
	t.acksLeft = int32(bits.OnesCount64(sharers))
	for n := 0; n < h.sys.P.Nodes; n++ {
		if sharers&bit(n) != 0 {
			h.send(&Msg{Type: MsgInv, Block: b, Dst: int8(n)})
		}
	}
}

func (h *HomeCtl) onInvAck(m *Msg) {
	b := m.Block
	e := h.entry(b)
	if h.inFlight(e) != txInv {
		panic(fmt.Sprintf("home %d: unexpected InvAck for block %d", h.id, b))
	}
	e.presence &^= bit(int(m.Src))
	h.ckDir(b, e, "inv-ack")
	t := h.txn(e)
	t.acksLeft--
	if t.acksLeft == 0 {
		// The invalidation fan-out round trip ends with the last ack.
		h.sys.tmark(t.req.Txn, telemetry.PhaseGather)
		h.grantOwnership(b, e, t, int(t.req.Src))
	}
}

// grantNotes holds the trace note of a grant to each node Params.Validate
// allows, so a traced grant allocates nothing.
var grantNotes = func() (n [64]string) {
	for i := range n {
		n[i] = "to=" + strconv.Itoa(i)
	}
	return n
}()

func (h *HomeCtl) grantOwnership(b memsys.Block, e *dirEntry, t *txnRec, to int) {
	h.sys.traceNode(trace.DirTransition, "grant", b, h.id, grantNotes[to])
	h.grant(e, to)
	h.ckDir(b, e, "grant")
	h.send(&Msg{Type: MsgOwnAck, Block: b, Dst: int8(to), Data: t.needData, Stamp: e.grants, Payload: h.sys.memWords(b), Txn: t.req.Txn})
	h.finish(e, t)
}

// ---------- Competitive updates ----------

func (h *HomeCtl) updateReq(m *Msg, e *dirEntry, t *txnRec) {
	h.UpdateReqs++
	b, src := m.Block, int(m.Src)
	if e.state == dirModified {
		if e.owner == m.Src {
			// The updater became the exclusive owner while these writes
			// were still combining in its write cache; its dirty line
			// already holds them, so just acknowledge.
			h.send(&Msg{Type: MsgUpdateAck, Block: b, Dst: m.Src, Excl: true, Stamp: e.grants, Txn: m.Txn})
			h.finish(e, t)
			return
		}
		// The block went exclusive to another cache (e.g. migratory under
		// CW+M) while this updater still had combined writes buffered:
		// recall the owner's copy, then hand the block to the updater.
		t.txn = txRecall
		h.send(&Msg{Type: MsgFwd, Block: b, Dst: e.owner, Excl: true, Txn: m.Txn})
		return
	}
	h.applyUpdate(m)
	others := h.sharersFor(e, src)
	// CW+M migratory detection (paper §3.4): the home cannot see local
	// reads, so when consecutive updates come from different processors it
	// interrogates all other copy holders; the block is deemed migratory
	// only if every one of them gives up its copy.
	probe := h.sys.P.M && h.sys.P.CW && !e.migratory &&
		e.lastUpdater >= 0 && e.lastUpdater != m.Src && others != 0
	e.lastUpdater = m.Src
	t.needData = e.presence&bit(src) == 0
	if others == 0 {
		// No other copies: the updater becomes the exclusive owner, so its
		// subsequent writes stay local.
		h.grant(e, src)
		h.ckDir(b, e, "update-excl")
		h.send(&Msg{Type: MsgUpdateAck, Block: b, Dst: m.Src, Data: t.needData, Excl: true, Stamp: e.grants, Payload: h.sys.memWords(b), Txn: m.Txn})
		h.finish(e, t)
		return
	}
	t.txn = txUpd
	t.acksLeft = int32(bits.OnesCount64(others))
	t.probing = probe
	t.gaveUp = true
	for n := 0; n < h.sys.P.Nodes; n++ {
		if others&bit(n) != 0 {
			h.send(&Msg{Type: MsgUpdCopy, Block: b, Dst: int8(n), Mask: m.Mask, Probe: probe, Payload: h.sys.memWords(b)})
		}
	}
}

func (h *HomeCtl) onUpdAck(m *Msg) {
	b := m.Block
	e := h.entry(b)
	if h.inFlight(e) != txUpd {
		panic(fmt.Sprintf("home %d: unexpected UpdAck for block %d", h.id, b))
	}
	if m.Removed {
		e.presence &^= bit(int(m.Src))
		h.ckDir(b, e, "upd-ack")
	}
	t := h.txn(e)
	if !m.GaveUp {
		t.gaveUp = false
	}
	t.acksLeft--
	if t.acksLeft > 0 {
		return
	}
	req := t.req
	// The update fan-out round trip ends with the last sharer's ack.
	h.sys.tmark(req.Txn, telemetry.PhaseGather)
	if t.probing && t.gaveUp {
		e.migratory = true
		h.MigratoryDetections++
	}
	if to := int(req.Src); e.presence&^bit(to) == 0 {
		// Every other copy is gone: grant exclusivity to the updater.
		h.grant(e, to)
		h.ckDir(b, e, "update-grant")
		h.send(&Msg{Type: MsgUpdateAck, Block: b, Dst: req.Src, Data: t.needData, Excl: true, Stamp: e.grants, Payload: h.sys.memWords(b), Txn: req.Txn})
	} else {
		// The updater keeps a Shared copy (if it has one); the ack carries
		// the post-update memory image so that copy reflects its own writes'
		// serialized versions.
		h.send(&Msg{Type: MsgUpdateAck, Block: b, Dst: req.Src, Payload: h.sys.memWords(b), Txn: req.Txn})
	}
	h.finish(e, t)
}

// ---------- Writebacks ----------

func (h *HomeCtl) wbReq(m *Msg, e *dirEntry, t *txnRec) {
	b := m.Block
	if e.state == dirModified && e.owner == m.Src && m.Stamp == e.grants {
		h.Writebacks++
		h.sys.traceNode(trace.DirTransition, "writeback", b, h.id, "")
		mask := m.Mask
		if mask == 0 {
			mask = memsys.FullMask
		}
		if h.sys.takeMutation("wb-drop-word") {
			// Injected protocol bug: the writeback merge silently loses the
			// lowest written word, so memory keeps a stale version of it.
			mask &= mask - 1
		}
		h.sys.storeMem(b, &m.Payload, mask)
		e.state = dirClean
		e.presence = 0
		e.overflow = false
		e.owner = -1
		h.ckDir(b, e, "writeback")
	} else {
		// Stale: the copy already moved on via a forwarded reply.
		h.StaleWritebacks++
		h.sys.traceNode(trace.DirTransition, "stale-wb", b, h.id, "")
	}
	h.send(&Msg{Type: MsgWBAck, Block: b, Dst: m.Src})
	// The owner's parked requests can proceed now that the writeback
	// resolved.
	t.deferred.prepend(&t.parked)
	h.finish(e, t)
}

// ---------- Locks and barriers ----------

func (h *HomeCtl) onLock(m *Msg) {
	if h.locks[m.Block] == nil {
		h.locks[m.Block] = &syncprim.Lock{}
	}
	j := h.getJob()
	j.m = *m
	h.sys.Eng.AfterCall(h.sys.P.Timing.MemAccess, lockDone, j)
}

// lockDone performs a lock request or release once the lock variable's
// memory access completes.
func lockDone(a any) {
	j := a.(*homeJob)
	h, m := j.h, &j.m
	l := h.locks[m.Block]
	switch m.Type {
	case MsgLockReq:
		if l.Acquire(int(m.Src)) {
			h.send(&Msg{Type: MsgLockGrant, Block: m.Block, Dst: m.Src})
		}
	case MsgLockRel:
		if next, ok := l.Release(int(m.Src)); ok {
			h.send(&Msg{Type: MsgLockGrant, Block: m.Block, Dst: int8(next)})
		}
		if h.sys.P.SC {
			h.send(&Msg{Type: MsgRelAck, Block: m.Block, Dst: m.Src})
		}
	}
	h.putJob(j)
}

func (h *HomeCtl) onBarrier(m *Msg) {
	if h.barriers[m.BarID] == nil {
		h.barriers[m.BarID] = syncprim.NewBarrier(h.sys.P.Nodes)
	}
	j := h.getJob()
	j.m = *m
	h.sys.Eng.AfterCall(h.sys.P.Timing.MemAccess, barrierDone, j)
}

// barrierDone records a barrier arrival once the barrier variable's memory
// access completes, releasing every participant on the last one.
func barrierDone(a any) {
	j := a.(*homeJob)
	h, m := j.h, &j.m
	if rel, done := h.barriers[m.BarID].Arrive(int(m.Src)); done {
		for _, p := range rel {
			h.send(&Msg{Type: MsgBarGo, BarID: m.BarID, Dst: int8(p)})
		}
	}
	h.putJob(j)
}

// DirEntryInfo is a read-only snapshot of a directory entry for tests and
// tools.
type DirEntryInfo struct {
	Modified  bool
	Presence  uint64
	Owner     int
	Migratory bool
	Busy      bool
}

// Entry returns a snapshot of the directory entry for b, or ok=false when
// the home has never seen the block.
func (h *HomeCtl) Entry(b memsys.Block) (DirEntryInfo, bool) {
	e := h.lookup(b)
	if e == nil {
		return DirEntryInfo{}, false
	}
	return DirEntryInfo{
		Modified:  e.state == dirModified,
		Presence:  e.presence,
		Owner:     int(e.owner),
		Migratory: e.migratory,
		Busy:      e.busy,
	}, true
}
