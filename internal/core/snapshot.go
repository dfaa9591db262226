package core

import (
	"fmt"
	"sort"

	"ccsim/internal/fault"
	"ccsim/internal/memsys"
)

// This file implements fault.Snapshotter for System: the diagnostic
// snapshot a SimFault carries. Everything is ordered deterministically
// (node order, block order) so identical faults dump identically.

// LastDispatch returns the dispatch context: the component and protocol
// message a panic inside a handler should be attributed to. ok is false
// before the first message delivery.
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
// faulting block, non-empty resource queues, blocked synchronization
// agents, and the flight recorder's tail.
func (s *System) FaultSnapshot(block uint64, hasBlock bool) *fault.Snapshot {
	snap := &fault.Snapshot{
		Blocked:      s.BlockedSync(),
		Messages:     s.Rec.Tail(),
		MessagesSeen: s.Rec.Seen(),
	}
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
	e := s.Nodes[home].Home.dir[b]
	if e == nil {
		return nil
	}
	d := &fault.DirState{
		Block:    uint64(b),
		Home:     home,
		State:    "CLEAN",
		Owner:    e.owner,
		Presence: e.presence,
		Busy:     e.busy,
		Deferred: len(e.deferred),
		Parked:   len(e.parked),
	}
	if e.state == dirModified {
		d.State = "MODIFIED"
	}
	if e.busy {
		d.Txn = [...]string{"none", "mem", "fwd", "inv", "upd", "recall"}[e.txn]
	}
	return d
}

// describePending renders one line per in-flight transaction of this
// cache, block order.
func (c *CacheCtl) describePending() []string {
	var out []string
	for _, b := range sortedBlocks(c.mshrs) {
		ms := c.mshrs[b]
		kind := [...]string{"read", "ownership", "update"}[ms.kind]
		line := fmt.Sprintf("block %d: %s in flight (%d readers, %d writes",
			b, kind, len(ms.readers), ms.nWrites)
		if ms.prefetchOnly {
			line += ", prefetch-only"
		}
		if len(ms.performed) > 0 {
			line += fmt.Sprintf(", %d performed-waiters", len(ms.performed))
		}
		out = append(out, line+")")
	}
	for _, b := range sortedBlocks(c.wbPending) {
		out = append(out, fmt.Sprintf("block %d: writeback in flight", b))
	}
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
		for _, b := range sortedBlocks(c.mshrs) {
			ms := c.mshrs[b]
			if len(ms.readers) > 0 {
				out = append(out, fmt.Sprintf("proc %d blocked reading block %d", c.id, b))
			}
			if len(ms.performed) > 0 {
				out = append(out, fmt.Sprintf("proc %d awaiting write completion on block %d", c.id, b))
			}
		}
		for _, b := range sortedBlocks(c.lockWaiters) {
			out = append(out, fmt.Sprintf("proc %d waiting for lock %d", c.id, b))
		}
		for _, id := range sortedInts(c.barWaiters) {
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
		for _, b := range sortedBlocks(h.locks) {
			l := h.locks[b]
			if l.Held() && l.QueueLen() > 0 {
				out = append(out, fmt.Sprintf("lock %d (home %d) held by proc %d, %d queued",
					b, h.id, l.Holder(), l.QueueLen()))
			}
		}
		for _, id := range sortedInts(h.barriers) {
			bar := h.barriers[id]
			if w := bar.Waiting(); w > 0 && w < bar.Parties() {
				out = append(out, fmt.Sprintf("barrier %d (home %d): %d of %d arrived",
					id, h.id, w, bar.Parties()))
			}
		}
	}
	return out
}

func sortedBlocks[V any](m map[memsys.Block]V) []memsys.Block {
	if len(m) == 0 {
		return nil
	}
	out := make([]memsys.Block, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedInts[V any](m map[int]V) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
