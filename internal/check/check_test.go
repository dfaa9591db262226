package check

import (
	"strings"
	"testing"

	"ccsim/internal/fault"
	"ccsim/internal/memsys"
)

// mustFault runs fn expecting it to panic with a *fault.SimFault and
// returns the fault.
func mustFault(t *testing.T, fn func()) *fault.SimFault {
	t.Helper()
	var got *fault.SimFault
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatalf("expected an invariant fault, got none")
			}
			f, ok := v.(*fault.SimFault)
			if !ok {
				t.Fatalf("panic value %T, want *fault.SimFault", v)
			}
			got = f
		}()
		fn()
	}()
	if got.Kind != fault.KindInvariant {
		t.Fatalf("fault kind %q, want %q", got.Kind, fault.KindInvariant)
	}
	if !got.HasBlock {
		t.Fatalf("invariant fault without a block")
	}
	return got
}

func TestCleanTransitionsPass(t *testing.T) {
	o := New()
	o.Reset(4)
	b := memsys.Block(0)
	// Read share: home adds the sharer, the reply installs a shared copy.
	o.OnDirState(0, b, false, -1, 1<<2, "read-share")
	o.OnLine(2, b, false, "install")
	// Ownership: the sharer upgrades; home registers the grant first.
	o.OnDirState(0, b, true, 2, 1<<2, "grant")
	o.OnLine(2, b, true, "own-upgrade")
	// Writeback: the owner drops its copy, then home goes clean and empty.
	o.OnLineDrop(2, b, "replace")
	o.OnDirState(0, b, false, -1, 0, "writeback")
	if o.Checks() == 0 {
		t.Fatalf("no checks counted")
	}
}

func TestSWMRViolation(t *testing.T) {
	o := New()
	o.Reset(4)
	b := memsys.Block(0)
	o.OnDirState(0, b, true, 1, 1<<1, "grant")
	o.OnLine(1, b, true, "install")
	f := mustFault(t, func() {
		// A second dirty copy without the first dropping is a SWMR break
		// even though the directory was (bogusly) retargeted.
		o.OnLine(3, b, true, "install")
	})
	if !strings.Contains(f.Message, "SWMR") && !strings.Contains(f.Message, "directory") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestDirtyNeedsModifiedOwner(t *testing.T) {
	o := New()
	o.Reset(2)
	b := memsys.Block(0)
	o.OnDirState(0, b, false, -1, 1, "read-share")
	f := mustFault(t, func() { o.OnLine(0, b, true, "bogus-upgrade") })
	if !strings.Contains(f.Message, "CLEAN") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestPresenceSupersetViolation(t *testing.T) {
	o := New()
	o.Reset(4)
	b := memsys.Block(0)
	o.OnDirState(0, b, false, -1, 1<<3, "read-share")
	o.OnLine(3, b, false, "install")
	// Home drops node 3's bit while it still holds the copy.
	f := mustFault(t, func() { o.OnDirState(0, b, false, -1, 0, "bogus-clear") })
	if !strings.Contains(f.Message, "presence") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestInstallOutsidePresence(t *testing.T) {
	o := New()
	o.Reset(4)
	b := memsys.Block(0)
	o.OnDirState(0, b, false, -1, 1<<1, "read-share")
	// The reply installs at node 2 but only node 1's bit is set — the
	// skip-sharer mutation's signature.
	f := mustFault(t, func() { o.OnLine(2, b, false, "install") })
	if !strings.Contains(f.Message, "presence") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestModifiedGrantWithStrayCopy(t *testing.T) {
	o := New()
	o.Reset(4)
	b := memsys.Block(0)
	o.OnDirState(0, b, false, -1, (1<<1)|(1<<2), "read-share")
	o.OnLine(1, b, false, "install")
	o.OnLine(2, b, false, "install")
	// Granting exclusivity to 1 while 2 never acknowledged an invalidation.
	f := mustFault(t, func() { o.OnDirState(0, b, true, 1, 1<<1, "grant") })
	if !strings.Contains(f.Message, "still holds") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestWrongHome(t *testing.T) {
	o := New()
	o.Reset(2)
	// Block 128 lives on page 1, homed at node 1 of 2.
	f := mustFault(t, func() { o.OnDirState(0, memsys.Block(128), false, -1, 0, "read-share") })
	if !strings.Contains(f.Message, "home") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestWriteCacheMaskConsistency(t *testing.T) {
	o := New()
	o.Reset(1)
	b := memsys.Block(0)
	o.OnWCWrite(0, b, 2, memsys.WordMask(0).Set(2))
	o.OnWCWrite(0, b, 5, memsys.WordMask(0).Set(2).Set(5))
	f := mustFault(t, func() {
		// The real mask lost word 2.
		o.OnWCWrite(0, b, 6, memsys.WordMask(0).Set(5).Set(6))
	})
	if !strings.Contains(f.Message, "mask") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
	o.Reset(1)
	o.OnWCWrite(0, b, 1, memsys.WordMask(0).Set(1))
	f = mustFault(t, func() { o.OnWCFlush(0, b, memsys.WordMask(0).Set(1).Set(3), "evict") })
	if !strings.Contains(f.Message, "mask") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
	o.Reset(1)
	f = mustFault(t, func() { o.OnWCFlush(0, b, memsys.WordMask(0).Set(1), "evict") })
	if !strings.Contains(f.Message, "never saw") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestSerializationOrder(t *testing.T) {
	o := New()
	o.Reset(1)
	b := memsys.Block(0)
	o.OnWrite(0, b, 0, 1)
	o.OnWrite(0, b, 0, 2)
	f := mustFault(t, func() { o.OnWrite(0, b, 0, 4) })
	if !strings.Contains(f.Message, "serialized") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestReadBeyondHighWater(t *testing.T) {
	o := New()
	o.Reset(1)
	b := memsys.Block(0)
	o.OnWrite(0, b, 3, 1)
	o.OnRead(0, b, 3, 1) // fine
	o.OnRead(0, b, 3, 0) // stale but not the oracle's concern (per-reader monotonicity is core's)
	f := mustFault(t, func() { o.OnRead(0, b, 3, 2) })
	if !strings.Contains(f.Message, "high-water") {
		t.Fatalf("unexpected message: %s", f.Message)
	}
}

func TestObservationLog(t *testing.T) {
	o := New()
	o.LogObs = true
	o.Reset(2)
	b := memsys.Block(0)
	o.OnWrite(0, b, 0, 1)
	o.OnRead(1, b, 0, 1)
	o.OnRead(1, b, 0, 1)
	if got := len(o.Observations(1)); got != 2 {
		t.Fatalf("node 1 observations = %d, want 2", got)
	}
	if o.Observations(1)[0].Write || !o.Observations(0)[0].Write {
		t.Fatalf("observation write flags wrong")
	}
	o.Reset(2)
	if len(o.Observations(1)) != 0 {
		t.Fatalf("Reset kept observations")
	}
}

// swallow runs a step expected to raise an invariant fault and discards
// the fault. The oracle records the new state before it asserts, so a
// swallowed violation leaves the shadow in the broken state a later row
// needs (two dirty copies, a copy under another node's MODIFIED entry).
func swallow(t *testing.T, fn func()) {
	t.Helper()
	mustFault(t, fn)
}

// TestViolationMessages pins every finding the oracle can raise: one row
// per violation site, with the full message. Where several nodes break the
// same assertion, the row pins which one the message names: always the
// lowest-numbered, as the per-node scan finds it first.
func TestViolationMessages(t *testing.T) {
	const nodes = 4
	b := memsys.Block(0)
	far := memsys.Block(1) << 50 // page 2^43: homed at node 0 of 4
	rows := []struct {
		name  string
		setup func(t *testing.T, o *Oracle)
		fire  func(o *Oracle)
		block memsys.Block
		want  string
	}{
		{
			name: "swmr",
			setup: func(t *testing.T, o *Oracle) {
				o.OnDirState(0, b, true, 1, 1<<1, "grant")
				o.OnLine(1, b, true, "install")
			},
			fire: func(o *Oracle) { o.OnLine(3, b, true, "upgrade") },
			want: "upgrade: node 3 turned block 0 dirty while node 1 already holds it dirty (SWMR)",
		},
		{
			name: "swmr-names-lowest",
			setup: func(t *testing.T, o *Oracle) {
				o.OnDirState(0, b, true, 2, 1<<2, "grant")
				o.OnLine(2, b, true, "install")
				swallow(t, func() { o.OnDirState(0, b, true, 3, 1<<3, "grant") })
				swallow(t, func() { o.OnLine(3, b, true, "install") })
			},
			fire: func(o *Oracle) { o.OnLine(1, b, true, "install") },
			want: "install: node 1 turned block 0 dirty while node 2 already holds it dirty (SWMR)",
		},
		{
			name: "dirty-untracked",
			fire: func(o *Oracle) { o.OnLine(0, b, true, "install") },
			want: "install: node 0 holds block 0 dirty but directory is untracked",
		},
		{
			name:  "dirty-under-clean",
			setup: func(t *testing.T, o *Oracle) { o.OnDirState(0, b, false, -1, 1, "read-share") },
			fire:  func(o *Oracle) { o.OnLine(0, b, true, "upgrade") },
			want:  "upgrade: node 0 holds block 0 dirty but directory is CLEAN presence 0x1",
		},
		{
			name:  "dirty-under-other-owner",
			setup: func(t *testing.T, o *Oracle) { o.OnDirState(0, b, true, 1, 1<<1, "grant") },
			fire:  func(o *Oracle) { o.OnLine(2, b, true, "install") },
			want:  "install: node 2 holds block 0 dirty but directory is MODIFIED owner 1 presence 0x2",
		},
		{
			name:  "shared-under-other-owner",
			setup: func(t *testing.T, o *Oracle) { o.OnDirState(0, b, true, 1, 1<<1, "grant") },
			fire:  func(o *Oracle) { o.OnLine(2, b, false, "install") },
			want:  "install: node 2 holds block 0 shared but directory is MODIFIED owner 1 presence 0x2",
		},
		{
			name:  "outside-presence",
			setup: func(t *testing.T, o *Oracle) { o.OnDirState(0, far, false, -1, 1<<1, "read-share") },
			fire:  func(o *Oracle) { o.OnLine(2, far, false, "install") },
			block: far,
			want:  "install: node 2 holds block 1125899906842624 outside the presence vector (CLEAN presence 0x2)",
		},
		{
			name:  "wrong-home",
			fire:  func(o *Oracle) { o.OnDirState(0, 128, false, -1, 0, "read-share") },
			block: 128,
			want:  "read-share: directory entry for block 128 mutated at node 0, home is 1",
		},
		{
			name: "owner-out-of-range-high",
			fire: func(o *Oracle) { o.OnDirState(0, b, true, nodes, 0, "grant") },
			want: "grant: block 0 MODIFIED with owner 4 out of range",
		},
		{
			name: "owner-out-of-range-negative",
			fire: func(o *Oracle) { o.OnDirState(0, b, true, -1, 0, "grant") },
			want: "grant: block 0 MODIFIED with owner -1 out of range",
		},
		{
			name: "modified-presence-tracks-others",
			fire: func(o *Oracle) { o.OnDirState(0, b, true, 1, 1<<1|1<<2, "grant") },
			want: "grant: block 0 MODIFIED owner 1 but presence 0x6 tracks other nodes",
		},
		{
			name: "stray-holders-names-lowest",
			setup: func(t *testing.T, o *Oracle) {
				o.OnDirState(0, b, false, -1, 1<<1|1<<2|1<<3, "read-share")
				o.OnLine(3, b, false, "install")
				o.OnLine(2, b, false, "install")
				o.OnLine(1, b, false, "install")
			},
			fire: func(o *Oracle) { o.OnDirState(0, b, true, 2, 1<<2, "grant") },
			want: "grant: block 0 granted MODIFIED to 2 while node 1 still holds a copy",
		},
		{
			name: "clean-while-dirty",
			setup: func(t *testing.T, o *Oracle) {
				o.OnDirState(0, far, true, 2, 1<<2, "grant")
				o.OnLine(2, far, true, "install")
			},
			fire:  func(o *Oracle) { o.OnDirState(0, far, false, -1, 1<<2, "downgrade") },
			block: far,
			want:  "downgrade: block 1125899906842624 CLEAN at home while node 2 holds it dirty",
		},
		{
			// Node 1 holds dirty and node 2 a dropped shared copy: node 1
			// comes first, so the dirty copy is named.
			name: "clean-while-dirty-before-dropped",
			setup: func(t *testing.T, o *Oracle) {
				o.OnDirState(0, b, true, 1, 1<<1, "grant")
				o.OnLine(1, b, true, "install")
				swallow(t, func() { o.OnLine(2, b, false, "install") })
			},
			fire: func(o *Oracle) { o.OnDirState(0, b, false, -1, 1<<1, "downgrade") },
			want: "downgrade: block 0 CLEAN at home while node 1 holds it dirty",
		},
		{
			name: "presence-dropped",
			setup: func(t *testing.T, o *Oracle) {
				o.OnDirState(0, b, false, -1, 1<<3, "read-share")
				o.OnLine(3, b, false, "install")
			},
			fire: func(o *Oracle) { o.OnDirState(0, b, false, -1, 0, "clear") },
			want: "clear: block 0 presence 0x0 dropped node 3 which still holds a copy",
		},
		{
			// Node 1 holds a dropped shared copy and node 2 holds dirty:
			// node 1 comes first, so the dropped copy is named.
			name: "presence-dropped-before-dirty",
			setup: func(t *testing.T, o *Oracle) {
				o.OnDirState(0, b, false, -1, 1<<1, "read-share")
				o.OnLine(1, b, false, "install")
				swallow(t, func() { o.OnDirState(0, b, true, 2, 1<<2, "grant") })
				o.OnLine(2, b, true, "install")
			},
			fire: func(o *Oracle) { o.OnDirState(0, b, false, -1, 1<<2, "downgrade") },
			want: "downgrade: block 0 presence 0x4 dropped node 1 which still holds a copy",
		},
		{
			name: "write-cache-mask",
			setup: func(t *testing.T, o *Oracle) {
				o.OnWCWrite(1, b, 2, memsys.WordMask(0).Set(2))
			},
			fire: func(o *Oracle) { o.OnWCWrite(1, b, 5, memsys.WordMask(0).Set(5)) },
			want: "write cache: node 1 block 0 word 5: dirty mask 00100000, shadow 00100100",
		},
		{
			name: "write-cache-flush-unseen",
			setup: func(t *testing.T, o *Oracle) {
				// Another node's entry for the block is not this node's.
				o.OnWCWrite(2, far, 1, memsys.WordMask(0).Set(1))
			},
			fire:  func(o *Oracle) { o.OnWCFlush(1, far, memsys.WordMask(0).Set(1), "evict") },
			block: far,
			want:  "evict: node 1 flushed write-cache block 1125899906842624 the shadow never saw written",
		},
		{
			name: "write-cache-flush-mask",
			setup: func(t *testing.T, o *Oracle) {
				o.OnWCWrite(3, b, 1, memsys.WordMask(0).Set(1))
			},
			fire: func(o *Oracle) { o.OnWCFlush(3, b, memsys.WordMask(0).Set(1).Set(3), "fence") },
			want: "fence: node 3 flushed block 0 with mask 00001010, shadow 00000010",
		},
		{
			name: "serialization-gap",
			setup: func(t *testing.T, o *Oracle) {
				o.OnWrite(0, b, 6, 1)
			},
			fire: func(o *Oracle) { o.OnWrite(2, b, 6, 3) },
			want: "write by node 2 to block 0 word 6 serialized as version 3 after 1",
		},
		{
			name:  "serialization-never-written",
			fire:  func(o *Oracle) { o.OnWrite(2, far, 4, 2) },
			block: far,
			want:  "write by node 2 to block 1125899906842624 word 4 serialized as version 2 after 0",
		},
		{
			name: "read-beyond-high-water",
			setup: func(t *testing.T, o *Oracle) {
				o.OnWrite(0, b, 3, 1)
				o.OnRead(1, b, 3, 1)
			},
			fire: func(o *Oracle) { o.OnRead(1, b, 3, 2) },
			want: "node 1 read block 0 word 3 version 2 beyond serialization high-water 1",
		},
		{
			name:  "read-never-written",
			fire:  func(o *Oracle) { o.OnRead(3, far, 7, 1) },
			block: far,
			want:  "node 3 read block 1125899906842624 word 7 version 1 beyond serialization high-water 0",
		},
		{
			name: "failf",
			fire: func(o *Oracle) { o.Failf("cache 2", b, "FLC holds block %d without the SLC", 0) },
			want: "FLC holds block 0 without the SLC",
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			o := New()
			o.Reset(nodes)
			if r.setup != nil {
				r.setup(t, o)
			}
			f := mustFault(t, func() { r.fire(o) })
			if f.Message != r.want {
				t.Errorf("message\n got %q\nwant %q", f.Message, r.want)
			}
			if f.Block != uint64(r.block) {
				t.Errorf("block %d, want %d", f.Block, r.block)
			}
		})
	}
}
