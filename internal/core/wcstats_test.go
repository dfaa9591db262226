package core

import (
	"testing"
)

// TestWriteCacheStatsUnderSLWBPressure pins that the write-cache `writes`
// statistic counts each committed processor write exactly once even when
// SLWB pressure stalls writes: the controller consults WouldEvict and
// backs off *before* calling Write, so a stalled-then-retried write never
// double-counts. The setup forces maximal conflict — a one-block write
// cache, a one-entry SLWB, and alternating blocks that map to the same
// frame — while a sharer on another node keeps the writer's updates
// non-exclusive so every write takes the write-cache path.
func TestWriteCacheStatsUnderSLWBPressure(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.SC = false
		p.WriteCacheBlocks = 1
		p.SLWBEntries = 1
		p.CWThreshold = 100 // keep the sharer's copies alive all test
	})
	a := blockHomedAt(s, 1)
	b := blockHomedAt(s, 2)

	// Node 1 becomes a sharer of both blocks, so node 0's combined updates
	// complete non-exclusively and node 0 never gets a Dirty copy (which
	// would bypass the write cache).
	read(t, eng, s, 1, a)
	read(t, eng, s, 1, b)

	const n = 8 // one FLWB's worth of back-to-back writes
	for i := 0; i < n; i++ {
		addr := a
		if i%2 == 1 {
			addr = b
		}
		// No performed callback: CW runs only under RC, where no
		// processor waits for a write to perform.
		if !s.Nodes[0].Cache.Write(addr, nil, nil) {
			t.Fatalf("write %d rejected by the FLWB", i)
		}
	}
	eng.Run()

	if left := s.Nodes[0].Cache.flwb.Len(); left != 0 {
		t.Fatalf("%d of %d writes left in the FLWB", left, n)
	}
	wc := s.Nodes[0].Cache.wc
	if got := wc.Writes(); got != n {
		t.Fatalf("write cache counted %d writes for %d committed processor writes", got, n)
	}
	// Alternating conflicting blocks: every write after the first evicts
	// its predecessor, nothing combines, and the last block stays resident.
	if got := wc.Combined(); got != 0 {
		t.Errorf("Combined() = %d, want 0 (blocks alternate)", got)
	}
	if got := wc.Evictions(); got != n-1 {
		t.Errorf("Evictions() = %d, want %d", got, n-1)
	}
	if got := wc.Occupancy(); got != 1 {
		t.Errorf("Occupancy() = %d, want 1", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after pressure run: %v", err)
	}
}
