package core

import (
	"fmt"
	"sort"

	"ccsim/internal/check"
	"ccsim/internal/fault"
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

	// statsOn gates the measurement counters so only the parallel section
	// is recorded (SPLASH methodology, paper §4).
	statsOn bool

	// Tracer, when non-nil, receives protocol events (message sends and
	// deliveries, directory transitions, cache fills and evictions).
	Tracer *trace.Tracer

	// Tele, when non-nil, collects transaction spans, stall intervals and
	// utilization samples. A nil collector is a no-op on every path.
	Tele *telemetry.Collector

	// Rec is the fault flight recorder: a fixed ring of the last protocol
	// messages, dumped with a SimFault. A nil recorder is a free no-op.
	Rec *fault.Recorder

	// Check, when non-nil, is the live coherence checker: every directory
	// and SLC state transition reports to it and a violated invariant
	// panics with a structured *fault.SimFault at the offending event.
	// Hook sites cost one nil check when disabled, like Tracer and Rec.
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
	// controller. A panic inside a handler is attributed to this message
	// (plain value fields — maintaining them costs no allocation).
	lastType   MsgType
	lastBlock  memsys.Block
	lastDst    int
	lastToHome bool
	lastValid  bool

	// Data-value verification state (Params.VerifyData): a per-word version
	// counter per block, advanced at each write's global serialization
	// point, and the violations found.
	verSeq         map[memsys.Block]*memsys.BlockData
	DataViolations []string

	// hopFree recycles the per-message event-chain records Send schedules;
	// see the hop type.
	hopFree []*hop
}

// nextVersion serializes a write to (b, w) and returns its version.
func (s *System) nextVersion(b memsys.Block, w int) int64 {
	c := s.verSeq[b]
	if c == nil {
		c = &memsys.BlockData{}
		s.verSeq[b] = c
	}
	c[w]++
	return c[w]
}

// serialize is a write's global serialization point on behalf of node: it
// draws the next version for (b, w) and reports it to the live checker,
// which asserts the serialization order is gapless and (under LogObs)
// records it for litmus outcome predicates.
func (s *System) serialize(node int, b memsys.Block, w int) int64 {
	v := s.nextVersion(b, w)
	if s.Check != nil {
		s.Check.OnWrite(node, b, w, v)
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
		Block: uint64(m.Block), Node: m.Src, Peer: m.Dst, Note: note,
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
		s.verSeq = make(map[memsys.Block]*memsys.BlockData)
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
// destination bus event chain. Hops are recycled through System.hopFree, so
// the per-message event chain — the hottest scheduling pattern in the
// simulator — allocates nothing once the free list is warm. The hop holds
// the message by value; the handler it is dispatched to reads it in place,
// so a hop is recycled only after dispatch returns.
type hop struct {
	s  *System
	m  Msg
	bt sim.Time
}

func (s *System) getHop(m *Msg, bt sim.Time) *hop {
	var h *hop
	if n := len(s.hopFree); n > 0 {
		h = s.hopFree[n-1]
		s.hopFree = s.hopFree[:n-1]
	} else {
		h = &hop{s: s}
	}
	h.m, h.bt = *m, bt
	return h
}

// deliver dispatches the hop's message and recycles the hop.
func (s *System) deliver(h *hop) {
	s.dispatch(&h.m)
	s.hopFree = append(s.hopFree, h)
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
	s.Net.SendCall(m.Src, m.Dst, m.Size(), hopArrive, h)
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
	s.Rec.Record(int64(s.Eng.Now()), "send", m.Type.String(), uint64(m.Block), m.Src, m.Dst)
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
	s.Rec.Record(int64(s.Eng.Now()), "recv", m.Type.String(), uint64(m.Block), m.Src, m.Dst)
	s.lastType, s.lastBlock, s.lastDst, s.lastToHome, s.lastValid =
		m.Type, m.Block, m.Dst, m.toHome(), true
	if s.Check != nil {
		s.Check.OnDispatch(m.Type.String(), m.Block, m.Dst, m.toHome())
	}
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

// invariantErrors is the shared invariant walker. In quiescent mode a
// non-quiesced home entry is itself a violation; in best-effort mode any
// block with in-flight state anywhere is excluded from every check. The
// walk visits maps, so findings are sorted before truncating to max to
// keep fault dumps deterministic.
func (s *System) invariantErrors(quiescent bool, max int) []error {
	var errs []error
	report := func(format string, args ...any) bool {
		errs = append(errs, fmt.Errorf(format, args...))
		return false
	}
	// Gather every cached copy, and (for best-effort mode) every block a
	// cache controller still has a transaction or writeback in flight for.
	type copyInfo struct {
		node  int
		state string
		dirty bool
	}
	copies := make(map[memsys.Block][]copyInfo)
	inflight := make(map[memsys.Block]bool)
	for _, n := range s.Nodes {
		n.Cache.forEachLine(func(b memsys.Block, st string, dirty bool) {
			copies[b] = append(copies[b], copyInfo{n.ID, st, dirty})
		})
		if !quiescent {
			for b := range n.Cache.mshrs {
				inflight[b] = true
			}
			for b := range n.Cache.wbPending {
				inflight[b] = true
			}
		}
	}
	for _, n := range s.Nodes {
		for b, e := range n.Home.dir {
			if s.HomeOf(b) != n.ID {
				if report("block %d: directory entry at node %d, home is %d", b, n.ID, s.HomeOf(b)) {
					return errs
				}
				continue
			}
			if e.busy || len(e.deferred) > 0 || len(e.parked) > 0 {
				if !quiescent {
					inflight[b] = true
					continue
				}
				if report("block %d: home not quiesced", b) {
					return errs
				}
				continue
			}
			if inflight[b] {
				continue
			}
			dirties := 0
			for _, c := range copies[b] {
				if c.dirty {
					dirties++
				}
			}
			switch e.state {
			case dirClean:
				if dirties != 0 {
					if report("block %d: CLEAN at home but %d dirty copies", b, dirties) {
						return errs
					}
				}
				// An entry with an empty presence vector claims the block is
				// uncached machine-wide: no copy of any kind may exist.
				if e.presence == 0 && len(copies[b]) > 0 {
					if report("block %d: uncached at home but %d cached copies", b, len(copies[b])) {
						return errs
					}
				}
				// Presence must be a superset of actual holders (silent
				// replacement makes it a superset, not an exact set).
				for _, c := range copies[b] {
					if e.presence&(1<<uint(c.node)) == 0 {
						if report("block %d: node %d holds a copy not in the presence vector", b, c.node) {
							return errs
						}
					}
				}
			case dirModified:
				if dirties > 1 {
					if report("block %d: %d dirty copies", b, dirties) {
						return errs
					}
				}
				for _, c := range copies[b] {
					if c.node != e.owner {
						if report("block %d: MODIFIED owner %d but node %d holds a %s copy", b, e.owner, c.node, c.state) {
							return errs
						}
					}
				}
			default:
				// A directory entry outside the known states is corrupt
				// whatever the copies look like.
				if report("block %d: unknown directory state %d", b, e.state) {
					return errs
				}
			}
		}
	}
	// No cache may hold a dirty copy of a block its home believes clean —
	// covered above — and every dirty copy must be the registered owner.
	for b, cs := range copies {
		if inflight[b] {
			continue
		}
		for _, c := range cs {
			if c.dirty {
				e := s.Nodes[s.HomeOf(b)].Home.dir[b]
				if e == nil || e.state != dirModified || e.owner != c.node {
					if report("block %d: dirty at node %d without matching directory state", b, c.node) {
						return errs
					}
				}
			}
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	if len(errs) > max {
		errs = errs[:max]
	}
	return errs
}
