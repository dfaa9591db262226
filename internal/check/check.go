// Package check implements the live coherence checker: a transition-time
// oracle that mirrors the protocol's architectural state in shadow
// structures and asserts the coherence invariants at every SLC and home
// (directory) state transition, instead of once at end-of-run quiescence.
//
// The oracle maintains, per memory block:
//
//   - a directory shadow (MODIFIED/CLEAN, owner, presence vector), updated
//     from a hook after every directory mutation;
//   - a cache shadow (which nodes hold a copy, and whether it is dirty),
//     updated at every SLC install, upgrade, downgrade and invalidation;
//   - a write-cache shadow (the per-word dirty mask each node's write
//     cache should carry), updated at every combining write and flush;
//   - a sequential value oracle (the high-water version of every word),
//     advanced at each write's global serialization point.
//
// At each hook it asserts the invariants that hold at *every instant* of
// this protocol, not just at quiescence: at most one dirty copy per block
// (SWMR); a dirty copy only at the registered owner of a MODIFIED entry;
// the presence vector a superset of the actual holders; in MODIFIED state
// the presence vector a subset of {owner}; write-cache masks agreeing with
// the shadow; versions serializing without gaps; and no read observing a
// version above the serialization high-water mark.
//
// A violation panics with a structured *fault.SimFault (KindInvariant)
// naming the block and the transition. ccsim.Run recovers it into the
// ordinary fault path, which adds the protocol message being handled and
// the controller handling it, so the dump carries the machine snapshot for
// the exact event where coherence first broke. Its flight-recorder tail
// comes from a replay of the run with a fresh oracle, which fails at the
// same event, and a message ring on the protocol-trace hook.
//
// The package is a leaf over fault and memsys so internal/core can hook it
// without cycles. A disabled checker is a nil pointer in core.System; every
// hook site is guarded by one nil check, the same zero-cost-off pattern as
// the protocol-trace hook.
package check

import (
	"fmt"
	"math/bits"

	"ccsim/internal/fault"
	"ccsim/internal/memsys"
)

// Obs is one data observation: a processor reading or serializing a word
// version. The litmus harness reconstructs consistency outcomes from these.
type Obs struct {
	Node  int
	Block memsys.Block
	Word  int
	Ver   int64
	Write bool // true: a write serialized; false: a processor read
}

// dirShadow mirrors one block's directory entry as last reported by its
// home.
type dirShadow struct {
	known    bool
	modified bool
	owner    int
	presence uint64
}

// lineShadow mirrors which nodes' SLCs hold one block: bit n of held is set
// while node n holds a copy, and bit n of dirty while that copy is dirty
// (dirty is always a subset of held). Runs have at most 64 nodes
// (core.Params.Validate rejects more).
type lineShadow struct {
	held, dirty uint64
}

// wcShadow mirrors one node's write-cache entry for one block: held from
// the entry's first combining write until its flush.
type wcShadow struct {
	held bool
	mask memsys.WordMask
}

// Oracle is the live checker's shadow state for one run. Attach one oracle
// to one run only: Reset rebinds it, but a run mutates it freely from the
// simulation goroutine. Every shadow is a block table, indexed by block
// number the way the protocol's own per-block state is.
type Oracle struct {
	nodes int
	dir   memsys.Table[dirShadow]
	lines memsys.Table[lineShadow]
	wc    []memsys.Table[wcShadow] // one table per node
	hwm   memsys.Table[memsys.BlockData]

	checks uint64

	// LogObs, when set before the run, records every read observation and
	// write serialization in per-node program order for the litmus
	// harness's outcome predicates.
	LogObs bool
	obs    [][]Obs
}

// New returns an idle oracle; the machine calls Reset when the run is
// assembled.
func New() *Oracle { return &Oracle{} }

// Reset binds the oracle to a fresh run over the given node count,
// discarding all shadow state.
func (o *Oracle) Reset(nodes int) {
	o.nodes = nodes
	o.dir = memsys.Table[dirShadow]{}
	o.lines = memsys.Table[lineShadow]{}
	o.wc = make([]memsys.Table[wcShadow], nodes)
	o.hwm = memsys.Table[memsys.BlockData]{}
	o.checks = 0
	o.obs = make([][]Obs, nodes)
}

// Checks returns how many transition-time assertions the oracle evaluated.
func (o *Oracle) Checks() uint64 { return o.checks }

// Observations returns node n's observation log (LogObs must have been
// set), in per-node program order.
func (o *Oracle) Observations(n int) []Obs { return o.obs[n] }

// violate raises a structured invariant fault for block b. The run that
// recovers it attributes it to the protocol message being handled.
func (o *Oracle) violate(b memsys.Block, format string, args ...any) {
	o.Failf("", b, format, args...)
}

// Failf lets the hooked code raise an invariant violation it detected
// itself (FLC inclusion, data-value regressions) through the same
// structured fault path. component names the controller at fault; leave it
// empty for the one handling the message being dispatched.
func (o *Oracle) Failf(component string, b memsys.Block, format string, args ...any) {
	panic(&fault.SimFault{
		Kind:      fault.KindInvariant,
		Component: component,
		Block:     uint64(b),
		HasBlock:  true,
		Message:   fmt.Sprintf(format, args...),
	})
}

// OnLine records that node's SLC now holds b (dirty or shared) after the
// named transition, and asserts directory-cache agreement for the new
// state.
func (o *Oracle) OnLine(node int, b memsys.Block, dirty bool, event string) {
	o.checks++
	l := o.lines.At(b)
	bit := uint64(1) << uint(node)
	l.held |= bit
	if dirty {
		l.dirty |= bit
	} else {
		l.dirty &^= bit
	}
	d := load(&o.dir, b)
	if dirty {
		// SWMR: no other node may hold a dirty copy at any instant.
		if others := l.dirty &^ bit; others != 0 {
			o.violate(b, "%s: node %d turned block %d dirty while node %d already holds it dirty (SWMR)",
				event, node, b, lowest(others))
		}
		// A dirty copy exists only at the registered owner of a MODIFIED
		// entry — the home always registers the grant before the ack can
		// arrive.
		if !d.known || !d.modified || d.owner != node {
			o.violate(b, "%s: node %d holds block %d dirty but directory is %s",
				event, node, b, d.describe())
		}
	} else if d.modified && d.owner != node {
		// A shared copy under a MODIFIED entry is legal only at the owner
		// (the instant between its downgrade and the home's transition).
		o.violate(b, "%s: node %d holds block %d shared but directory is %s",
			event, node, b, d.describe())
	}
	if d.known && d.presence&(1<<uint(node)) == 0 {
		o.violate(b, "%s: node %d holds block %d outside the presence vector (%s)",
			event, node, b, d.describe())
	}
}

// OnLineDrop records that node's SLC no longer holds b (invalidation or
// replacement).
func (o *Oracle) OnLineDrop(node int, b memsys.Block, event string) {
	o.checks++
	if l := o.lines.Get(b); l != nil {
		bit := uint64(1) << uint(node)
		l.held &^= bit
		l.dirty &^= bit
	}
}

// lowest returns the lowest-numbered node in a nonempty node set: the node
// a per-node scan from 0 meets first.
func lowest(set uint64) int { return bits.TrailingZeros64(set) }

// load returns block b's entry of t, or the zero entry when no block of b's
// page was ever touched. It never allocates.
func load[T any](t *memsys.Table[T], b memsys.Block) T {
	if p := t.Get(b); p != nil {
		return *p
	}
	var zero T
	return zero
}

func (d dirShadow) describe() string {
	if !d.known {
		return "untracked"
	}
	if d.modified {
		return fmt.Sprintf("MODIFIED owner %d presence %#x", d.owner, d.presence)
	}
	return fmt.Sprintf("CLEAN presence %#x", d.presence)
}

// OnDirState records block b's directory entry after the named transition
// at its home, and asserts the directory-side invariants against the cache
// shadow.
func (o *Oracle) OnDirState(home int, b memsys.Block, modified bool, owner int, presence uint64, event string) {
	o.checks++
	if h := memsys.HomeOf(b, o.nodes); h != home {
		o.violate(b, "%s: directory entry for block %d mutated at node %d, home is %d",
			event, b, home, h)
	}
	*o.dir.At(b) = dirShadow{known: true, modified: modified, owner: owner, presence: presence}
	l := load(&o.lines, b)
	if modified {
		if owner < 0 || owner >= o.nodes {
			o.violate(b, "%s: block %d MODIFIED with owner %d out of range", event, b, owner)
		}
		// In MODIFIED state the presence vector collapses to at most the
		// owner, and no other node may hold any copy.
		if presence&^(1<<uint(owner)) != 0 {
			o.violate(b, "%s: block %d MODIFIED owner %d but presence %#x tracks other nodes",
				event, b, owner, presence)
		}
		if stray := l.held &^ (1 << uint(owner)); stray != 0 {
			o.violate(b, "%s: block %d granted MODIFIED to %d while node %d still holds a copy",
				event, b, owner, lowest(stray))
		}
		return
	}
	// CLEAN: no dirty copy anywhere, and presence a superset of holders.
	// The lowest offending holder is named, with its dirty copy reported
	// before its missing presence bit.
	if bad := l.dirty | l.held&^presence; bad != 0 {
		n := lowest(bad)
		if l.dirty&(1<<uint(n)) != 0 {
			o.violate(b, "%s: block %d CLEAN at home while node %d holds it dirty", event, b, n)
		}
		o.violate(b, "%s: block %d presence %#x dropped node %d which still holds a copy",
			event, b, presence, n)
	}
}

// OnWCWrite records a combining write of word w into node's write cache
// and asserts the real per-word dirty mask matches the shadow.
func (o *Oracle) OnWCWrite(node int, b memsys.Block, w int, got memsys.WordMask) {
	o.checks++
	e := o.wc[node].At(b)
	want := e.mask.Set(w)
	*e = wcShadow{held: true, mask: want}
	if got != want {
		o.violate(b, "write cache: node %d block %d word %d: dirty mask %s, shadow %s",
			node, b, w, got, want)
	}
}

// OnWCFlush records node's write cache giving up its entry for b (update
// issue, victimization or fence drain) and asserts the flushed mask is the
// shadow mask and nonempty — a combined update must carry exactly the
// words that were written.
func (o *Oracle) OnWCFlush(node int, b memsys.Block, got memsys.WordMask, event string) {
	o.checks++
	var want memsys.WordMask
	held := false
	if e := o.wc[node].Get(b); e != nil {
		want, held = e.mask, e.held
		*e = wcShadow{}
	}
	if !held {
		o.violate(b, "%s: node %d flushed write-cache block %d the shadow never saw written", event, node, b)
	}
	if got != want || got == 0 {
		o.violate(b, "%s: node %d flushed block %d with mask %s, shadow %s",
			event, node, b, got, want)
	}
}

// OnWrite records a write to (b, w) serializing as version ver and asserts
// the global serialization order has no gaps or replays: each location's
// versions advance exactly one at a time. The high-water marks keep the
// 32-bit words core's versions have; ver is one past a mark once the
// assertion holds, and core faults before a word's counter passes
// math.MaxInt32.
func (o *Oracle) OnWrite(node int, b memsys.Block, w int, ver int64) {
	o.checks++
	c := o.hwm.At(b)
	if ver != int64(c[w])+1 {
		o.violate(b, "write by node %d to block %d word %d serialized as version %d after %d",
			node, b, w, ver, c[w])
	}
	c[w] = int32(ver)
	if o.LogObs {
		o.obs[node] = append(o.obs[node], Obs{Node: node, Block: b, Word: w, Ver: ver, Write: true})
	}
}

// OnRead records a processor observing version ver of (b, w) and asserts
// it does not exceed the serialization high-water mark — a version from
// the future means a data path fabricated or double-applied a write.
func (o *Oracle) OnRead(node int, b memsys.Block, w int, ver int64) {
	o.checks++
	// A block never written reads as version 0.
	if hw := int64(load(&o.hwm, b)[w]); ver > 0 && ver > hw {
		o.violate(b, "node %d read block %d word %d version %d beyond serialization high-water %d",
			node, b, w, ver, hw)
	}
	if o.LogObs {
		o.obs[node] = append(o.obs[node], Obs{Node: node, Block: b, Word: w, Ver: ver})
	}
}
