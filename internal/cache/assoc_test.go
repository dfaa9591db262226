package cache

import (
	"testing"
	"testing/quick"

	"ccsim/internal/memsys"
)

func TestAssocAvoidsDirectMappedConflict(t *testing.T) {
	// Blocks 1 and 5 conflict in a 4-frame direct-mapped cache but coexist
	// in a 2-way one (4 frames = 2 sets of 2; 1 % 2 == 5 % 2 but the set
	// holds both).
	c := NewSLCAssoc(4, 2, false)
	c.Insert(1, Shared)
	_, victim, evicted := c.Insert(5, Shared)
	if evicted {
		t.Fatalf("2-way cache evicted on second insert: %+v", victim)
	}
	if c.Lookup(1) == nil || c.Lookup(5) == nil {
		t.Fatal("both blocks should be resident")
	}
}

func TestAssocLRUReplacement(t *testing.T) {
	c := NewSLCAssoc(4, 2, false) // 2 sets x 2 ways
	// Fill set 1 (odd blocks).
	c.Insert(1, Shared)
	c.Insert(3, Shared)
	// Touch 1 so 3 becomes the LRU way.
	if c.Lookup(1) == nil {
		t.Fatal("lookup failed")
	}
	_, victim, evicted := c.Insert(5, Shared)
	if !evicted || victim.Block != 3 {
		t.Fatalf("victim = %+v, want block 3 (LRU)", victim)
	}
	if c.Lookup(1) == nil || c.Lookup(5) == nil {
		t.Fatal("MRU block or new block lost")
	}
}

func TestAssocInvalidateFreesWay(t *testing.T) {
	c := NewSLCAssoc(4, 2, false)
	c.Insert(1, Shared)
	c.Insert(3, Dirty)
	c.Invalidate(1)
	_, victim, evicted := c.Insert(5, Shared)
	if evicted {
		t.Fatalf("insert into invalidated way evicted %+v", victim)
	}
	if c.Lookup(3) == nil || c.Lookup(5) == nil {
		t.Fatal("resident blocks lost")
	}
}

func TestAssocReinsertSameBlock(t *testing.T) {
	c := NewSLCAssoc(4, 2, false)
	l, _, _ := c.Insert(1, Shared)
	l.PrefetchBit = true
	l2, _, evicted := c.Insert(1, Dirty)
	if evicted || l2.PrefetchBit || l2.State != Dirty {
		t.Fatalf("reinsert wrong: %+v evicted=%v", l2, evicted)
	}
	if valid(c) != 1 {
		t.Fatalf("Valid = %d", valid(c))
	}
}

func TestAssocConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSLCAssoc(4, 0, false) },
		func() { NewSLCAssoc(5, 2, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad construction did not panic")
				}
			}()
			f()
		}()
	}
	// Infinite cache ignores associativity gracefully.
	if c := NewSLCAssoc(0, 4, false); c.Sets() != 0 || c.Ways() != 4 {
		t.Fatal("infinite associative construction wrong")
	}
}

// Property: an N-frame fully associative cache driven by fewer than N+1
// distinct blocks never evicts.
func TestFullyAssociativeNoEvictionsProperty(t *testing.T) {
	f := func(refs []uint8) bool {
		const frames = 8
		c := NewSLCAssoc(frames, frames, false) // one set: fully associative
		for _, r := range refs {
			b := memsys.Block(r % frames)
			if c.Lookup(b) == nil {
				if _, _, evicted := c.Insert(b, Shared); evicted {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: associativity never loses blocks — after any mix of inserts
// and invalidates, Lookup agrees with an LRU reference model.
func TestAssocMatchesReferenceModelProperty(t *testing.T) {
	type refModel struct {
		order []memsys.Block // LRU order per set key, most recent last
	}
	f := func(ops []struct {
		B   uint8
		Inv bool
	}) bool {
		const frames, ways = 8, 2
		nsets := frames / ways
		c := NewSLCAssoc(frames, ways, false)
		model := make(map[int][]memsys.Block, nsets) // set -> MRU-last list
		find := func(l []memsys.Block, b memsys.Block) int {
			for i, x := range l {
				if x == b {
					return i
				}
			}
			return -1
		}
		for _, op := range ops {
			b := memsys.Block(op.B % 32)
			set := int(uint64(b) % uint64(nsets))
			l := model[set]
			if op.Inv {
				c.Invalidate(b)
				if i := find(l, b); i >= 0 {
					model[set] = append(l[:i], l[i+1:]...)
				}
				continue
			}
			// Simulate a demand fill: lookup (refresh) or insert.
			if c.Lookup(b) != nil {
				i := find(l, b)
				model[set] = append(append(l[:i], l[i+1:]...), b)
				continue
			}
			c.Insert(b, Shared)
			if len(l) == ways {
				l = l[1:] // evict LRU
			}
			model[set] = append(l, b)
		}
		for set, l := range model {
			for _, b := range l {
				if c.Lookup(b) == nil {
					return false
				}
				_ = set
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
