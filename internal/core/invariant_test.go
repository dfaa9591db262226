package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ccsim/internal/cache"
	"ccsim/internal/memsys"
	"ccsim/internal/sim"
)

// TestInvariantUnknownDirState pins the exhaustive directory-state switch:
// an entry outside the known states must be reported as corrupt, not fall
// through a non-exhaustive switch silently.
func TestInvariantUnknownDirState(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean run fails invariants: %v", err)
	}
	e := s.Nodes[0].Home.lookup(memsys.BlockOf(a))
	if e == nil {
		t.Fatalf("no directory entry after read")
	}
	e.state = 99
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "unknown directory state 99") {
		t.Fatalf("CheckInvariants = %v, want unknown-directory-state error", err)
	}
}

// TestInvariantUncachedWithCopies pins the empty-presence assertion: a
// CLEAN entry with no presence bits claims the block is uncached
// machine-wide, so any surviving cached copy is a violation.
func TestInvariantUncachedWithCopies(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	s.Nodes[0].Home.lookup(memsys.BlockOf(a)).presence = 0
	found := s.CheckInvariantsBestEffort(8)
	joined := strings.Join(found, "\n")
	if !strings.Contains(joined, "uncached at home") {
		t.Fatalf("findings %q lack the uncached-with-copies violation", joined)
	}
	if !strings.Contains(joined, "not in the presence vector") {
		t.Fatalf("findings %q lack the presence-superset violation", joined)
	}
}

// TestBestEffortSkipsInflightBlocks pins the two checker modes against each
// other: a non-quiesced home entry is itself a violation at quiescence, but
// best-effort mode must exclude that block from every check — it may be
// mid-transaction — while still reporting violations on settled blocks.
func TestBestEffortSkipsInflightBlocks(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	b := blockHomedAt(s, 1)
	read(t, eng, s, 1, a)
	read(t, eng, s, 1, b)

	// Corrupt block a's entry and mark it busy, as if a transaction were
	// mid-flight when the machine stopped.
	ea := s.Nodes[0].Home.lookup(memsys.BlockOf(a))
	ea.state = 99
	ea.busy = true
	// Corrupt block b's entry with nothing in flight.
	s.Nodes[1].Home.lookup(memsys.BlockOf(b)).state = 77

	if err := s.CheckInvariants(); err == nil {
		t.Fatalf("quiescent checker accepted a busy home entry")
	}
	found := s.CheckInvariantsBestEffort(8)
	joined := strings.Join(found, "\n")
	if strings.Contains(joined, "99") || strings.Contains(joined, "not quiesced") {
		t.Fatalf("best-effort findings include the in-flight block: %q", joined)
	}
	if !strings.Contains(joined, "unknown directory state 77") {
		t.Fatalf("best-effort findings miss the settled block's violation: %q", joined)
	}
}

// TestBestEffortFindingsSortedAndCapped pins determinism of the fault-dump
// diagnostic: findings come out sorted and truncated to the requested max.
func TestBestEffortFindingsSortedAndCapped(t *testing.T) {
	eng, s := testSystem(t, nil)
	addrs := []int{0, 1, 2}
	for _, home := range addrs {
		a := blockHomedAt(s, home)
		read(t, eng, s, (home+1)%4, a)
		s.Nodes[home].Home.lookup(memsys.BlockOf(a)).state = 99
	}
	found := s.CheckInvariantsBestEffort(2)
	if len(found) != 2 {
		t.Fatalf("got %d findings, want capped at 2: %q", len(found), found)
	}
	if !(found[0] < found[1]) {
		t.Fatalf("findings not sorted: %q", found)
	}
	all := s.CheckInvariantsBestEffort(8)
	if len(all) != 3 {
		t.Fatalf("got %d findings, want 3: %q", len(all), all)
	}
}

// TestInvariantFindings provokes each kind of invariant finding on a
// drained four-node machine and pins its message in quiescent and in
// best-effort mode, on an infinite SLC and on a finite two-way one. Each
// case breaks block b, homed at node 0; the findings are listed as the walk
// returns them, sorted, with %[1]d standing for b.
func TestInvariantFindings(t *testing.T) {
	cases := []struct {
		name      string
		corrupt   func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr)
		quiescent []string
		// bestEffort is nil when it equals quiescent.
		bestEffort []string
	}{
		{
			name: "entry at the wrong home",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				s.Nodes[1].Home.entry(memsys.BlockOf(a))
			},
			quiescent: []string{"block %[1]d: directory entry at node 1, home is 0"},
		},
		{
			name: "home not quiesced",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				read(t, eng, s, 1, a)
				s.Nodes[0].Home.lookup(memsys.BlockOf(a)).busy = true
			},
			quiescent:  []string{"block %[1]d: home not quiesced"},
			bestEffort: []string{},
		},
		{
			name: "clean with dirty copies",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				read(t, eng, s, 1, a)
				read(t, eng, s, 2, a)
				lineOf(s, 1, a).State = cache.Dirty
				lineOf(s, 2, a).State = cache.Dirty
			},
			quiescent: []string{
				"block %[1]d: CLEAN at home but 2 dirty copies",
				"block %[1]d: dirty at node 1 without matching directory state",
				"block %[1]d: dirty at node 2 without matching directory state",
			},
		},
		{
			name: "uncached with copies",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				read(t, eng, s, 1, a)
				read(t, eng, s, 3, a)
				s.Nodes[0].Home.lookup(memsys.BlockOf(a)).presence = 0
			},
			quiescent: []string{
				"block %[1]d: node 1 holds a copy not in the presence vector",
				"block %[1]d: node 3 holds a copy not in the presence vector",
				"block %[1]d: uncached at home but 2 cached copies",
			},
		},
		{
			name: "copy outside the presence vector",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				read(t, eng, s, 1, a)
				read(t, eng, s, 2, a)
				s.Nodes[0].Home.lookup(memsys.BlockOf(a)).presence &^= bit(2)
			},
			quiescent: []string{"block %[1]d: node 2 holds a copy not in the presence vector"},
		},
		{
			name: "modified with two dirty copies",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				write(t, eng, s, 1, a)
				s.Nodes[2].Cache.slc.Insert(memsys.BlockOf(a), cache.Dirty)
			},
			quiescent: []string{
				"block %[1]d: 2 dirty copies",
				"block %[1]d: MODIFIED owner 1 but node 2 holds a D copy",
				"block %[1]d: dirty at node 2 without matching directory state",
			},
		},
		{
			name: "modified with three dirty copies",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				write(t, eng, s, 2, a)
				s.Nodes[1].Cache.slc.Insert(memsys.BlockOf(a), cache.Dirty)
				s.Nodes[3].Cache.slc.Insert(memsys.BlockOf(a), cache.Dirty)
			},
			quiescent: []string{
				"block %[1]d: 3 dirty copies",
				"block %[1]d: MODIFIED owner 2 but node 1 holds a D copy",
				"block %[1]d: MODIFIED owner 2 but node 3 holds a D copy",
				"block %[1]d: dirty at node 1 without matching directory state",
				"block %[1]d: dirty at node 3 without matching directory state",
			},
		},
		{
			name: "modified with a copy at another node",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				write(t, eng, s, 1, a)
				s.Nodes[2].Cache.slc.Insert(memsys.BlockOf(a), cache.Shared)
			},
			quiescent: []string{"block %[1]d: MODIFIED owner 1 but node 2 holds a S copy"},
		},
		{
			name: "unknown directory state",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				read(t, eng, s, 1, a)
				s.Nodes[0].Home.lookup(memsys.BlockOf(a)).state = 99
			},
			quiescent: []string{"block %[1]d: unknown directory state 99"},
		},
		{
			name: "dirty copy the home never granted",
			corrupt: func(t *testing.T, eng *sim.Engine, s *System, a memsys.Addr) {
				s.Nodes[2].Cache.slc.Insert(memsys.BlockOf(a), cache.Dirty)
			},
			quiescent: []string{"block %[1]d: dirty at node 2 without matching directory state"},
		},
	}
	slcs := []struct {
		name   string
		mutate func(*Params)
	}{
		{"infinite SLC", nil},
		{"two-way SLC", func(p *Params) { p.SLCSets, p.SLCWays = 64, 2 }},
	}
	for _, slc := range slcs {
		for _, c := range cases {
			t.Run(slc.name+"/"+c.name, func(t *testing.T) {
				eng, s := testSystem(t, slc.mutate)
				a := blockHomedAt(s, 0)
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("fresh machine fails invariants: %v", err)
				}
				c.corrupt(t, eng, s, a)
				b := memsys.BlockOf(a)
				render := func(formats []string) []string {
					out := make([]string, len(formats))
					for i, f := range formats {
						out[i] = fmt.Sprintf(f, b)
					}
					return out
				}
				want := render(c.quiescent)
				var got []string
				for _, e := range s.invariantErrors(true, 8) {
					got = append(got, e.Error())
				}
				if !slices.Equal(got, want) {
					t.Errorf("quiescent findings:\n got %q\nwant %q", got, want)
				}
				if err := s.CheckInvariants(); err == nil || err.Error() != want[0] {
					t.Errorf("CheckInvariants = %v, want %q", err, want[0])
				}
				if c.bestEffort != nil {
					want = render(c.bestEffort)
				}
				if got := s.CheckInvariantsBestEffort(8); !slices.Equal(got, want) {
					t.Errorf("best-effort findings:\n got %q\nwant %q", got, want)
				}
			})
		}
	}
}
