package core

import (
	"testing"

	"ccsim/internal/cache"
	"ccsim/internal/memsys"
)

func TestLimitedDirectoryTracksWithinBudget(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.DirPointers = 2 })
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	e, _ := s.Nodes[0].Home.Entry(memsys.BlockOf(a))
	if s.Nodes[0].Home.PointerOverflows != 0 {
		t.Fatalf("overflowed within pointer budget: %+v", e)
	}
	// Within budget, a write invalidates exactly the tracked sharers.
	write(t, eng, s, 1, a)
	if lineOf(s, 2, a) != nil {
		t.Fatal("tracked sharer not invalidated")
	}
	if s.Nodes[0].Home.BroadcastInvalidations != 0 {
		t.Fatal("broadcast used within pointer budget")
	}
}

func TestLimitedDirectoryOverflowBroadcasts(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.DirPointers = 2 })
	a := blockHomedAt(s, 0)
	// Three sharers overflow a two-pointer entry.
	read(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	read(t, eng, s, 3, a)
	home := s.Nodes[0].Home
	if home.PointerOverflows != 1 {
		t.Fatalf("PointerOverflows = %d, want 1", home.PointerOverflows)
	}
	// A write must now broadcast invalidations and still end up coherent.
	write(t, eng, s, 1, a)
	if home.BroadcastInvalidations != 1 {
		t.Fatalf("BroadcastInvalidations = %d, want 1", home.BroadcastInvalidations)
	}
	for _, n := range []int{2, 3} {
		if lineOf(s, n, a) != nil {
			t.Fatalf("sharer %d survived the broadcast", n)
		}
	}
	if l := lineOf(s, 1, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("writer's line: %+v", l)
	}
	// The grant collapsed the entry back to one pointer: the overflow is
	// gone and the next round tracks precisely again.
	e, _ := home.Entry(memsys.BlockOf(a))
	if !e.Modified || e.Owner != 1 {
		t.Fatalf("directory after broadcast grant: %+v", e)
	}
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a)
	if home.BroadcastInvalidations != 1 {
		t.Fatal("post-collapse write still broadcast")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLimitedDirectoryGeneratesMoreTrafficThanFullMap(t *testing.T) {
	run := func(ptrs int) uint64 {
		eng, s := testSystem(t, func(p *Params) {
			p.Nodes = 8
			p.DirPointers = ptrs
		})
		a := blockHomedAt(s, 0)
		for n := 1; n <= 3; n++ {
			read(t, eng, s, n, a)
		}
		write(t, eng, s, 1, a)
		return s.Traffic.TotalMsgs()
	}
	full := run(0)
	limited := run(1)
	// With one pointer the write broadcasts to every node (spurious
	// invalidations and acks for 4..7); the full map reaches exactly the
	// two real sharers.
	if limited <= full {
		t.Fatalf("Dir1B traffic (%d msgs) not above full map (%d)", limited, full)
	}
}

func TestLimitedDirectoryUnderAllExtensions(t *testing.T) {
	// The overflow path must compose with P, M and CW.
	eng, s := testSystem(t, func(p *Params) {
		p.DirPointers = 1
		p.P = true
		p.CW = true
		p.M = true
	})
	a := blockHomedAt(s, 0)
	for n := 1; n <= 3; n++ {
		read(t, eng, s, n, a)
	}
	c := s.Nodes[1].Cache
	c.Write(a, nil, nil)
	eng.Run()
	for _, e := range c.WriteCache().DrainAll() {
		c.doFlush(e, nil)
	}
	eng.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLimitedDirectoryValidate(t *testing.T) {
	p := DefaultParams()
	p.DirPointers = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative DirPointers accepted")
	}
}

func TestLimitedDirectoryMemsysBlockHelper(t *testing.T) {
	// blockHomedAt returns an address; Block() of it must round-trip.
	_, s := testSystem(t, nil)
	a := blockHomedAt(s, 3)
	if s.HomeOf(memsys.BlockOf(a)) != 3 {
		t.Fatal("home helper broken")
	}
}
