package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"ccsim/internal/cache"
	"ccsim/internal/check"
	"ccsim/internal/memsys"
	"ccsim/internal/network"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
	"ccsim/internal/telemetry"
	"ccsim/internal/trace"
)

// System is the coherence fabric of one simulated machine: one node per
// processor, each with a local bus, a home (directory) controller for the
// memory pages it owns, and a second-level cache controller.
type System struct {
	Eng *sim.Engine
	Net network.Net
	P   Params

	Nodes []*Node

	// Traffic counts network messages (local bus transactions between a
	// cache and its own memory do not enter the network).
	Traffic stats.Traffic

	// MissLatency is the distribution of every node's demand-miss service
	// times: one histogram per run, where CacheStats keeps only sums.
	MissLatency stats.Hist

	// statsOn gates the measurement counters so only the parallel section
	// is recorded (SPLASH methodology, paper §4).
	statsOn bool

	// Tracer, when non-nil, receives protocol events (message sends and
	// deliveries, directory transitions, cache fills and evictions): the
	// streaming *trace.Tracer of a traced run, or the message tail the
	// replay of a faulted run keeps for its fault dump.
	Tracer interface{ Record(trace.Event) }

	// Tele, when non-nil, collects transaction spans, stall intervals and
	// utilization samples. A nil collector is a no-op on every path.
	Tele *telemetry.Collector

	// Check, when non-nil, is the live coherence checker: every directory
	// and SLC state transition reports to it and a violated invariant
	// panics with a structured *fault.SimFault at the offending event.
	// Hook sites cost one nil check when disabled, like Tracer.
	Check *check.Oracle

	// Shr, when non-nil, is the sharing-pattern analyzer: processor
	// accesses, demand misses, invalidations, updates and network messages
	// report per block so each block's access stream can be classified
	// (read-only, migratory, producer-consumer, ...). Hooks fire only
	// inside the measured section and cost one nil check when disabled.
	Shr *telemetry.Sharing

	// mutArmed is the one-shot protocol-mutation trigger (Params.Mutate):
	// the first transition matching the mutation kind takes it and
	// misbehaves once, giving the checker a deterministic bug to catch.
	mutArmed bool

	// Dispatch context: the protocol message most recently delivered to a
	// controller. A panic inside a handler, and a live-checker fault, is
	// attributed to this message (plain value fields — maintaining them
	// costs no allocation).
	lastType   MsgType
	lastBlock  memsys.Block
	lastDst    int8
	lastToHome bool
	lastValid  bool

	// Data-value verification state (Params.VerifyData, else nil): per
	// block, each word's version counter and home memory's words, and the
	// violations found.
	verSeq         *memsys.Table[verWords]
	DataViolations []string

	// The run's record pools, one per type, shared by every node: the
	// transaction records of busy directory entries (see txnRec), held
	// requests (HomeCtl.hold), the per-message event chains Send schedules
	// (hop), MSHRs, and home and SLC jobs.
	txns     pool[txnRec]
	reqs     pool[heldReq]
	hops     pool[hop]
	mshrs    pool[mshr]
	homeJobs pool[homeJob]
	slcJobs  pool[slcJob]
}

// verWords is one block's data-verification state. next holds each word's
// last version, advanced at every write's global serialization point; mem
// holds the versions home memory has. Memory's words live here rather than
// in the directory entry, so a run that does not verify carries none.
type verWords struct {
	next memsys.BlockData
	mem  memsys.BlockData
}

// nextVersion serializes a write to (b, w) and returns its version. A
// version counts the writes to one word; a counter that would pass
// math.MaxInt32 panics, so the run faults instead of storing a version
// that wrapped negative.
func (s *System) nextVersion(b memsys.Block, w int) int32 {
	c := &s.verSeq.At(b).next
	if c[w] == math.MaxInt32 {
		panic(fmt.Sprintf("core: version counter of block %d word %d would pass math.MaxInt32", b, w))
	}
	c[w]++
	return c[w]
}

// memWords returns home memory's words of block b: zero when verification
// is off or no word of b's page was ever written. It never allocates.
func (s *System) memWords(b memsys.Block) memsys.BlockData {
	if s.verSeq != nil {
		if v := s.verSeq.Get(b); v != nil {
			return v.mem
		}
	}
	return memsys.BlockData{}
}

// storeMem writes the masked words of d into home memory's copy of block b.
// Its two callers, wbReq for a current writeback and onFwdReply, store data
// only from b's registered MODIFIED owner, and b has a page by then: every
// grant serializes a write of b (nextVersion gives b its page) before the
// owner can return data. An ownership grant's writes serialize as its
// OwnAck arrives, an exclusive update grant applies the update first, and
// a migratory block was written before it became migratory.
func (s *System) storeMem(b memsys.Block, d *memsys.BlockData, mask memsys.WordMask) {
	if s.verSeq == nil {
		return
	}
	s.verSeq.At(b).mem.Merge(*d, mask)
}

// serialize is a write's global serialization point on behalf of node: it
// draws the next version for (b, w) and reports it to the live checker,
// which asserts the serialization order is gapless and (under LogObs)
// records it for litmus outcome predicates.
func (s *System) serialize(node int, b memsys.Block, w int) int32 {
	v := s.nextVersion(b, w)
	if s.Check != nil {
		s.Check.OnWrite(node, b, w, int64(v))
	}
	return v
}

// takeMutation fires the armed protocol mutation if it matches kind,
// disarming it so the injected bug happens exactly once.
func (s *System) takeMutation(kind string) bool {
	if !s.mutArmed || s.P.Mutate != kind {
		return false
	}
	s.mutArmed = false
	return true
}

// dataViolation records one data-value invariant violation on block b
// (bounded). With the live checker attached it fails fast instead, so the
// fault names the event where the value invariant first broke.
func (s *System) dataViolation(b memsys.Block, format string, args ...any) {
	if s.Check != nil {
		s.Check.Failf("", b, format, args...)
	}
	if len(s.DataViolations) < 16 {
		s.DataViolations = append(s.DataViolations, fmt.Sprintf(format, args...))
	}
}

// traceMsg records a message event if tracing is enabled.
func (s *System) traceMsg(k trace.Kind, m *Msg) {
	if s.Tracer == nil {
		return
	}
	note := ""
	switch {
	case m.Excl:
		note = "excl"
	case m.Prefetch:
		note = "prefetch"
	case m.Mig:
		note = "mig"
	}
	s.Tracer.Record(trace.Event{
		At: int64(s.Eng.Now()), Kind: k, What: m.Type.String(),
		Block: uint64(m.Block), Node: int(m.Src), Peer: int(m.Dst), Note: note,
	})
}

// tmark timestamps the end of a telemetry phase on transaction txn at the
// current instant.
func (s *System) tmark(txn uint64, ph telemetry.Phase) {
	if txn != 0 && s.Tele != nil {
		s.Tele.Mark(txn, ph, int64(s.Eng.Now()))
	}
}

// traceNode records a node-local event (directory transition, fill,
// eviction) if tracing is enabled.
func (s *System) traceNode(k trace.Kind, what string, b memsys.Block, node int, note string) {
	if k == trace.DirTransition && s.Tele != nil && s.statsOn {
		s.Tele.RecordInstant(node, what, uint64(b), int64(s.Eng.Now()))
	}
	if s.Tracer == nil {
		return
	}
	s.Tracer.Record(trace.Event{
		At: int64(s.Eng.Now()), Kind: k, What: what,
		Block: uint64(b), Node: node, Peer: -1, Note: note,
	})
}

// SetStatsEnabled turns measurement gathering on or off; timing behavior is
// unaffected.
func (s *System) SetStatsEnabled(on bool) { s.statsOn = on }

// Node bundles one processor node's coherence machinery.
type Node struct {
	ID    int
	Bus   *sim.Resource
	Home  *HomeCtl
	Cache *CacheCtl
}

// NewSystem builds a machine from params over the given engine and network.
func NewSystem(eng *sim.Engine, net network.Net, params Params) (*System, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &System{Eng: eng, Net: net, P: params, statsOn: true}
	if params.VerifyData {
		s.verSeq = new(memsys.Table[verWords])
	}
	s.mutArmed = params.Mutate != ""
	s.Nodes = make([]*Node, params.Nodes)
	for i := range s.Nodes {
		n := &Node{
			ID:  i,
			Bus: sim.NewResource(eng, fmt.Sprintf("bus%d", i)),
		}
		n.Home = newHomeCtl(s, i)
		n.Cache = newCacheCtl(s, i)
		s.Nodes[i] = n
	}
	return s, nil
}

// HomeOf returns the home node of block b.
func (s *System) HomeOf(b memsys.Block) int { return memsys.HomeOf(b, s.P.Nodes) }

// busTime returns the local-bus occupancy of message m.
func (s *System) busTime(m *Msg) sim.Time {
	if m.Data || m.Type == MsgUpdateReq || m.Type == MsgUpdCopy {
		return s.P.Timing.BusData
	}
	return s.P.Timing.BusCtl
}

// hop carries one in-flight message across its source bus -> network ->
// destination bus event chain. Hops come from System.hops, so the
// per-message event chain — the hottest scheduling pattern in the
// simulator — allocates nothing once the pool is warm; idx names the hop
// there. The hop holds the message by value; the handler it is dispatched
// to reads it in place, so a hop is released only after dispatch returns.
type hop struct {
	s   *System
	m   Msg
	bt  sim.Time
	idx int32
}

func (s *System) getHop(m *Msg, bt sim.Time) *hop {
	i, h := s.hops.get()
	h.s, h.m, h.bt, h.idx = s, *m, bt, i
	return h
}

// deliver dispatches the hop's message and releases the hop.
func (s *System) deliver(h *hop) {
	s.dispatch(&h.m)
	s.hops.put(h.idx)
}

// hopSrcBus runs when the message clears its source node's bus.
func hopSrcBus(a any) {
	h := a.(*hop)
	s, m := h.s, &h.m
	if m.Src == m.Dst {
		// Local: one bus transaction carries the message to the memory
		// module or cache; no network involvement.
		s.deliver(h)
		return
	}
	if s.statsOn {
		s.Traffic.Add(m.Class(), m.Size())
		if s.Shr != nil {
			s.Shr.OnTraffic(uint64(m.Block), m.Class(), m.Size())
		}
	}
	s.Net.SendCall(int(m.Src), int(m.Dst), m.Size(), hopArrive, h)
}

// hopArrive runs when the message's last byte reaches the destination node.
func hopArrive(a any) {
	h := a.(*hop)
	h.s.Nodes[h.m.Dst].Bus.UseCall(h.bt, hopDstBus, h)
}

// hopDstBus runs when the message clears the destination node's bus.
func hopDstBus(a any) {
	h := a.(*hop)
	h.s.deliver(h)
}

// Send transmits m from m.Src to m.Dst: across the source node's bus, then
// the network (when the destination is remote), then the destination node's
// bus, and finally dispatches it to the home or cache controller. Send
// copies m, so the caller may reuse it at once; a handler receiving the
// delivered *Msg may use it only until the handler returns.
func (s *System) Send(m *Msg) {
	s.traceMsg(trace.MsgSend, m)
	bt := s.busTime(m)
	s.Nodes[m.Src].Bus.UseCall(bt, hopSrcBus, s.getHop(m, bt))
}

// arrivalPhase maps a delivered message to the span phase ending at its
// arrival: requests end the requester-to-home transit, forwards the
// home-to-owner transit, forward replies the owner leg, and replies the
// home-to-requester transit. Fan-out messages (Inv/UpdCopy and their acks)
// carry no transaction — their round trip is marked as PhaseGather at the
// home when the last ack arrives.
func arrivalPhase(t MsgType) (telemetry.Phase, bool) {
	switch t {
	case MsgReadReq, MsgOwnReq, MsgUpdateReq:
		return telemetry.PhaseRequest, true
	case MsgFwd:
		return telemetry.PhaseForward, true
	case MsgFwdReply:
		return telemetry.PhaseOwner, true
	case MsgReadReply, MsgOwnAck, MsgUpdateAck, MsgPrefNack:
		return telemetry.PhaseReply, true
	}
	return 0, false
}

func (s *System) dispatch(m *Msg) {
	s.traceMsg(trace.MsgDeliver, m)
	s.lastType, s.lastBlock, s.lastDst, s.lastToHome, s.lastValid =
		m.Type, m.Block, m.Dst, m.toHome(), true
	if m.Txn != 0 && s.Tele != nil {
		if ph, ok := arrivalPhase(m.Type); ok {
			s.Tele.Mark(m.Txn, ph, int64(s.Eng.Now()))
		}
	}
	if m.toHome() {
		s.Nodes[m.Dst].Home.Handle(m)
	} else {
		s.Nodes[m.Dst].Cache.Handle(m)
	}
}

// Quiesced reports whether no coherence transactions are pending anywhere
// (used by the machine-level invariant checker at the end of a run).
func (s *System) Quiesced() bool {
	for _, n := range s.Nodes {
		if !n.Cache.idle() || !n.Home.idle() {
			return false
		}
	}
	return s.Eng.Pending() == 0
}

// CheckInvariants verifies global coherence invariants. It must be called
// at quiescence (no in-flight transactions). It returns a descriptive error
// on the first violation found.
func (s *System) CheckInvariants() error {
	errs := s.invariantErrors(true, 1)
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// CheckInvariantsBestEffort runs the invariant walk without requiring
// quiescence — blocks with in-flight transactions (busy directory entries,
// pending MSHRs or writebacks) are skipped rather than reported — and
// returns up to max findings. The fault path uses it so the coherence
// violation that caused a hang appears in the SimFault diagnostic.
func (s *System) CheckInvariantsBestEffort(max int) []string {
	errs := s.invariantErrors(false, max)
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// holders returns the nodes caching block b and those holding it dirty, as
// bitmasks (Params.Validate bounds Nodes to 64). It reads the caches
// without touching their LRU ages.
func (s *System) holders(b memsys.Block) (held, dirty uint64) {
	for _, n := range s.Nodes {
		if l := n.Cache.slc.Peek(b); l != nil {
			held |= bit(n.ID)
			if l.State == cache.Dirty {
				dirty |= bit(n.ID)
			}
		}
	}
	return held, dirty
}

// invariantErrors is the shared invariant walker. In quiescent mode a
// non-quiesced home entry is itself a violation; in best-effort mode any
// block with in-flight state anywhere is excluded from every check. It
// walks each home's entries, then each SLC's lines against their home
// entry, and builds no list of copies. Findings are sorted before
// truncating to max to keep fault dumps deterministic.
func (s *System) invariantErrors(quiescent bool, max int) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	// For best-effort mode, every block a cache controller still has a
	// transaction or writeback in flight for.
	var inflight map[memsys.Block]bool
	if !quiescent {
		inflight = make(map[memsys.Block]bool)
		for _, n := range s.Nodes {
			for _, ms := range n.Cache.slwb {
				inflight[ms.block] = true
			}
			for _, w := range n.Cache.wb {
				inflight[w.block] = true
			}
		}
	}
	for _, n := range s.Nodes {
		n.Home.dir.ForEach(func(b memsys.Block, e *dirEntry) {
			if !e.seen {
				return
			}
			if s.HomeOf(b) != n.ID {
				report("block %d: directory entry at node %d, home is %d", b, n.ID, s.HomeOf(b))
				return
			}
			if !e.quiet() {
				if !quiescent {
					inflight[b] = true
					return
				}
				report("block %d: home not quiesced", b)
				return
			}
			// A directory entry outside the known states is corrupt
			// whatever the copies look like.
			if !inflight[b] && e.state != dirClean && e.state != dirModified {
				report("block %d: unknown directory state %d", b, e.state)
			}
		})
	}
	// Each copy against its home entry. A finding about all of a block's
	// copies is reported by the lowest-numbered node whose copy shows it
	// (the lowest bit of a node mask), so it is reported once; only such a
	// finding looks at other nodes.
	for _, n := range s.Nodes {
		n.Cache.slc.ForEach(func(b memsys.Block, l *cache.Line) {
			dirty := l.State == cache.Dirty
			if inflight[b] {
				return
			}
			// Every dirty copy must be the registered owner.
			e := s.Nodes[s.HomeOf(b)].Home.lookup(b)
			if dirty && (e == nil || e.state != dirModified || int(e.owner) != n.ID) {
				report("block %d: dirty at node %d without matching directory state", b, n.ID)
			}
			if e == nil || !e.quiet() {
				return
			}
			switch e.state {
			case dirClean:
				if dirty || e.presence == 0 {
					held, dirties := s.holders(b)
					if dirty && bits.TrailingZeros64(dirties) == n.ID {
						report("block %d: CLEAN at home but %d dirty copies", b, bits.OnesCount64(dirties))
					}
					// An entry with an empty presence vector claims the block
					// is uncached machine-wide: no copy of any kind may exist.
					if e.presence == 0 && bits.TrailingZeros64(held) == n.ID {
						report("block %d: uncached at home but %d cached copies", b, bits.OnesCount64(held))
					}
				}
				// Presence must be a superset of actual holders (silent
				// replacement makes it a superset, not an exact set).
				if e.presence&bit(n.ID) == 0 {
					report("block %d: node %d holds a copy not in the presence vector", b, n.ID)
				}
			case dirModified:
				owner := int(e.owner)
				if n.ID == owner {
					return
				}
				report("block %d: MODIFIED owner %d but node %d holds a %s copy", b, owner, n.ID, l.State)
				// More than one dirty copy means one beside the owner's.
				if dirty {
					if _, dirties := s.holders(b); bits.TrailingZeros64(dirties&^bit(owner)) == n.ID && bits.OnesCount64(dirties) > 1 {
						report("block %d: %d dirty copies", b, bits.OnesCount64(dirties))
					}
				}
			}
		})
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	if len(errs) > max {
		errs = errs[:max]
	}
	return errs
}
