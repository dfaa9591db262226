package core

import (
	"math"
	"strings"
	"testing"

	"ccsim/internal/memsys"
)

func TestVerifyDataCleanRun(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.VerifyData = true })
	a := blockHomedAt(s, 1)
	// A producer-consumer handoff: versions must flow through write,
	// invalidation, and refetch.
	write(t, eng, s, 0, a)
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a)
	read(t, eng, s, 0, a)
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations on a coherent run: %v", s.DataViolations)
	}
	// The version counter advanced once per write.
	if got := s.verSeq.At(memsys.BlockOf(a)).next[0]; got != 2 {
		t.Fatalf("version counter = %d, want 2", got)
	}
}

// TestVersionCounterOverflowFaults drives writes to one word whose version
// counter starts near math.MaxInt32. A counter one below the limit still
// serializes, and the reader sees the version; a write past the limit
// panics with the named message, which the run's fault containment
// reports, and leaves the counter at the limit rather than storing a
// version that wrapped negative.
func TestVersionCounterOverflowFaults(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.VerifyData = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	next := &s.verSeq.At(b).next
	next[0] = math.MaxInt32 - 1
	write(t, eng, s, 0, a)
	read(t, eng, s, 2, a)
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations below the limit: %v", s.DataViolations)
	}
	if d := wordsOf(s, 2, a); d == nil || d[0] != math.MaxInt32 {
		t.Fatalf("reader's data = %+v, want word 0 version %d", d, int32(math.MaxInt32))
	}

	const want = "word 0 would pass math.MaxInt32"
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming %q (counter %d)", msg, want, next[0])
		}
		if next[0] != math.MaxInt32 {
			t.Fatalf("counter = %d after the fault, want %d", next[0], int32(math.MaxInt32))
		}
	}()
	write(t, eng, s, 0, a)
}

func TestVerifyDetectsRegression(t *testing.T) {
	// Force a backward observation directly: the checker, not the
	// protocol, is under test here.
	_, s := testSystem(t, func(p *Params) { p.VerifyData = true })
	c := s.Nodes[0].Cache
	c.observe(7, 3, 5)
	c.observe(7, 3, 5) // same version: fine
	if len(s.DataViolations) != 0 {
		t.Fatalf("spurious violation: %v", s.DataViolations)
	}
	c.observe(7, 3, 4) // backward: must flag
	if len(s.DataViolations) != 1 || !strings.Contains(s.DataViolations[0], "block 7 word 3") {
		t.Fatalf("violations = %v", s.DataViolations)
	}
}

func TestVerifyViolationListBounded(t *testing.T) {
	_, s := testSystem(t, func(p *Params) { p.VerifyData = true })
	c := s.Nodes[0].Cache
	c.observe(1, 0, 100)
	for i := 0; i < 50; i++ {
		c.observe(1, 0, 1)
	}
	if len(s.DataViolations) > 16 {
		t.Fatalf("violation list unbounded: %d", len(s.DataViolations))
	}
}

func TestVerifyMigratoryHandoffCarriesData(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.M = true
		p.VerifyData = true
	})
	a := blockHomedAt(s, 0)
	// Build the migratory chain; each reader must see the previous
	// writer's version.
	for _, n := range []int{1, 2, 3, 1, 2, 3} {
		read(t, eng, s, n, a)
		write(t, eng, s, n, a)
	}
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations in migratory chain: %v", s.DataViolations)
	}
	if got := s.verSeq.At(memsys.BlockOf(a)).next[0]; got != 6 {
		t.Fatalf("version counter = %d, want 6", got)
	}
}

func TestVerifyWritebackCarriesData(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.SLCSets = 4
		p.VerifyData = true
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 0, a)
	// Victimize the dirty line; its version must survive the writeback.
	read(t, eng, s, 0, b.Next(4).Addr())
	eng.Run()
	read(t, eng, s, 2, a) // must see version 1 from memory
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations across writeback: %v", s.DataViolations)
	}
	if d := wordsOf(s, 2, a); d == nil || d[0] != 1 {
		t.Fatalf("reader's data = %+v, want word 0 version 1", d)
	}
}

func TestVerifyCWUpdatesCarryData(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.CWThreshold = 4
		p.VerifyData = true
	})
	a := blockHomedAt(s, 1)
	read(t, eng, s, 2, a) // a sharer that will receive updates
	c := s.Nodes[0].Cache
	for i := 0; i < 3; i++ {
		c.Write(a, nil, nil)
		eng.Run()
		for _, e := range c.WriteCache().DrainAll() {
			c.doFlush(e, nil)
		}
		eng.Run()
		// The sharer reads after every update; versions must increase.
		read(t, eng, s, 2, a)
	}
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations under competitive update: %v", s.DataViolations)
	}
	if d := wordsOf(s, 2, a); d == nil || d[0] != 3 {
		t.Fatalf("sharer data = %+v, want word 0 version 3", d)
	}
}

func TestVerifyOffByDefaultCostsNothing(t *testing.T) {
	eng, s := testSystem(t, nil)
	if s.verSeq != nil {
		t.Fatal("version state allocated without VerifyData")
	}
	a := blockHomedAt(s, 1)
	write(t, eng, s, 0, a)
	read(t, eng, s, 2, a)
	if len(s.DataViolations) != 0 {
		t.Fatal("violations recorded with verification off")
	}
	// The writer and the reader hold the block; no SLC keeps words for it.
	if lineOf(s, 0, a) == nil || lineOf(s, 2, a) == nil {
		t.Fatal("nodes 0 and 2 should both hold the block")
	}
	for n := range s.Nodes {
		if d := wordsOf(s, n, a); d != nil {
			t.Fatalf("node %d's SLC keeps words without VerifyData: %v", n, d)
		}
	}
}

// wordsOf returns the words node n's SLC keeps for address a's block.
func wordsOf(s *System, n int, a memsys.Addr) *memsys.BlockData {
	return s.Nodes[n].Cache.slc.Words(memsys.BlockOf(a))
}
