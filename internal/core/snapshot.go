package core

import (
	"cmp"
	"fmt"
	"slices"

	"ccsim/internal/fault"
	"ccsim/internal/memsys"
)

// This file takes System's diagnostic snapshot, the one a SimFault
// carries. Everything is ordered deterministically (node order, block
// order) so identical faults dump identically.

// LastDispatch returns the dispatch context: the component and protocol
// message a panic or a live-checker fault inside a handler should be
// attributed to. ok is false before the first message delivery.
func (s *System) LastDispatch() (component, msgKind string, block memsys.Block, ok bool) {
	if !s.lastValid {
		return "", "", 0, false
	}
	component = fmt.Sprintf("cache %d", s.lastDst)
	if s.lastToHome {
		component = fmt.Sprintf("home %d", s.lastDst)
	}
	return component, s.lastType.String(), s.lastBlock, true
}

// FaultSnapshot captures the machine's diagnostic state for a fault
// report: per-cache pending transactions, the directory entry of the
// faulting block, non-empty resource queues and blocked synchronization
// agents. The message tail is not the system's to give: the replay of a
// faulted run fills it in (replayTail in package ccsim).
func (s *System) FaultSnapshot(block uint64, hasBlock bool) *fault.Snapshot {
	snap := &fault.Snapshot{Blocked: s.BlockedSync()}
	for _, n := range s.Nodes {
		c := n.Cache
		cs := fault.CacheState{
			Node:     n.ID,
			SLWBUsed: c.slwbUsed,
			FLWBUsed: c.flwb.Len(),
			RelQueue: len(c.relQueue),
			Pending:  c.describePending(),
		}
		if cs.SLWBUsed != 0 || cs.FLWBUsed != 0 || cs.RelQueue != 0 || len(cs.Pending) != 0 {
			snap.Caches = append(snap.Caches, cs)
		}
	}
	if hasBlock {
		snap.Dir = s.dirSnapshot(memsys.Block(block))
	}
	for _, n := range s.Nodes {
		for _, res := range []struct {
			name  string
			depth int
		}{
			{fmt.Sprintf("bus%d", n.ID), n.Bus.QueueDepth()},
			{fmt.Sprintf("slc%d", n.ID), n.Cache.slcRes.QueueDepth()},
		} {
			if res.depth > 0 {
				snap.Resources = append(snap.Resources, fault.ResourceState{Name: res.name, Depth: res.depth})
			}
		}
	}
	return snap
}

// dirSnapshot converts the faulting block's directory entry (nil when the
// home never allocated one).
func (s *System) dirSnapshot(b memsys.Block) *fault.DirState {
	home := s.HomeOf(b)
	e := s.Nodes[home].Home.lookup(b)
	if e == nil {
		return nil
	}
	d := &fault.DirState{
		Block:    uint64(b),
		Home:     home,
		State:    "CLEAN",
		Owner:    int(e.owner),
		Presence: e.presence,
		Busy:     e.busy,
	}
	if e.state == dirModified {
		d.State = "MODIFIED"
	}
	// A quiet entry has no transaction record: nothing in flight or queued.
	var t txnRec
	if e.rec != 0 {
		t = *s.txns.at(e.rec)
	}
	d.Deferred, d.Parked = t.deferred.len(), t.parked.len()
	if e.busy {
		d.Txn = [...]string{"none", "mem", "fwd", "inv", "upd", "recall"}[t.txn]
	}
	return d
}

// describePending renders one line per in-flight transaction of this
// cache, block order.
func (c *CacheCtl) describePending() []string {
	var out []string
	for _, ms := range c.pendingByBlock() {
		kind := [...]string{"read", "ownership", "update"}[ms.kind]
		line := fmt.Sprintf("block %d: %s in flight (%d readers, %d writes",
			ms.block, kind, len(ms.readers), ms.nWrites)
		if ms.prefetchOnly {
			line += ", prefetch-only"
		}
		if len(ms.performed) > 0 {
			line += fmt.Sprintf(", %d performed-waiters", len(ms.performed))
		}
		out = append(out, line+")")
	}
	wbs := make([]memsys.Block, len(c.wb))
	for i, w := range c.wb {
		wbs[i] = w.block
	}
	slices.Sort(wbs)
	for _, b := range wbs {
		out = append(out, fmt.Sprintf("block %d: writeback in flight", b))
	}
	return out
}

// pendingByBlock returns the in-flight transaction records in block order.
func (c *CacheCtl) pendingByBlock() []*mshr {
	out := slices.Clone(c.slwb)
	slices.SortFunc(out, func(a, b *mshr) int { return cmp.Compare(a.block, b.block) })
	return out
}

// BlockedSync names every agent blocked on the synchronization fabric and
// the memory system: processors stuck on reads, writes, locks, barriers or
// full buffers, and the lock/barrier primitives holding them. The cache
// controller's node ID is its processor's ID.
func (s *System) BlockedSync() []string {
	var out []string
	for _, n := range s.Nodes {
		c := n.Cache
		for _, ms := range c.pendingByBlock() {
			if len(ms.readers) > 0 {
				out = append(out, fmt.Sprintf("proc %d blocked reading block %d", c.id, ms.block))
			}
			if len(ms.performed) > 0 {
				out = append(out, fmt.Sprintf("proc %d awaiting write completion on block %d", c.id, ms.block))
			}
		}
		for _, b := range sortedKeys(c.lockWaiters) {
			out = append(out, fmt.Sprintf("proc %d waiting for lock %d", c.id, b))
		}
		for _, id := range sortedKeys(c.barWaiters) {
			out = append(out, fmt.Sprintf("proc %d waiting at barrier %d", c.id, id))
		}
		if len(c.relAckWaiters) > 0 {
			out = append(out, fmt.Sprintf("proc %d awaiting release ack", c.id))
		}
		if c.flwbBlocked {
			out = append(out, fmt.Sprintf("proc %d blocked on full FLWB", c.id))
		}
	}
	for _, n := range s.Nodes {
		h := n.Home
		for _, b := range sortedKeys(h.locks) {
			l := h.locks[b]
			if l.Held() && l.QueueLen() > 0 {
				out = append(out, fmt.Sprintf("lock %d (home %d) held by proc %d, %d queued",
					b, h.id, l.Holder(), l.QueueLen()))
			}
		}
		for _, id := range sortedKeys(h.barriers) {
			bar := h.barriers[id]
			if w := bar.Waiting(); w > 0 && w < bar.Parties() {
				out = append(out, fmt.Sprintf("barrier %d (home %d): %d of %d arrived",
					id, h.id, w, bar.Parties()))
			}
		}
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	if len(m) == 0 {
		return nil
	}
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
