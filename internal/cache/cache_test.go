package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"ccsim/internal/memsys"
)

// NewSLC returns a direct-mapped SLC that keeps no words, with the given
// number of frames, or an infinite one if frames == 0.
func NewSLC(frames int) *SLC { return NewSLCAssoc(frames, 1, false) }

// Sets returns the frame count (0 = infinite).
func (c *SLC) Sets() int { return c.frames }

// Ways returns the associativity.
func (c *SLC) Ways() int { return c.ways }

// valid counts c's valid lines.
func valid(c *SLC) int {
	n := 0
	c.ForEach(func(memsys.Block, *Line) { n++ })
	return n
}

// TestLineSize pins an SLC line at its state and extension bits: a run
// holds one Line per cached block, so a field added back to it (the
// data-verification words, say) grows every run's SLC. 16 bytes is a
// one-byte state, two 32-bit counters and four flags. The line holds no
// block number, which the infinite cache's index already maps and a finite
// cache keeps beside each frame's line: with it the line took 24 bytes,
// and with an int state and int counters 40.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 16 {
		t.Errorf("Line is %d bytes, want 16", n)
	}
}

// TestDirectMappedKeepsNoAges drives a direct-mapped SLC through a seeded
// sequence of inserts, lookups and invalidations and checks every victim
// against a model in which each frame holds the last block inserted into
// it: with one way per set there is no replacement choice, so the cache
// keeps no LRU ages and never ticks its clock. A two-way cache of the same
// size does keep them.
func TestDirectMappedKeepsNoAges(t *testing.T) {
	const frames = 16
	c := NewSLCAssoc(frames, 1, true)
	if c.age != nil {
		t.Fatal("direct-mapped SLC allocated LRU ages")
	}
	if NewSLCAssoc(frames, 2, false).age == nil {
		t.Fatal("two-way SLC has no LRU ages")
	}
	var model [frames]struct {
		block memsys.Block
		valid bool
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		b := memsys.Block(r.Intn(4 * frames))
		m := &model[b%frames]
		switch r.Intn(3) {
		case 0:
			_, victim, evicted := c.Insert(b, Shared)
			wantEvict := m.valid && m.block != b
			if evicted != wantEvict || (evicted && victim.Block != m.block) {
				t.Fatalf("step %d: Insert(%d) evicted %v (%d), model holds %+v", i, b, evicted, victim.Block, *m)
			}
			m.block, m.valid = b, true
		case 1:
			if hit := c.Lookup(b) != nil; hit != (m.valid && m.block == b) {
				t.Fatalf("step %d: Lookup(%d) hit %v, model holds %+v", i, b, hit, *m)
			}
		case 2:
			if _, ok := c.Invalidate(b); ok != (m.valid && m.block == b) {
				t.Fatalf("step %d: Invalidate(%d) = %v, model holds %+v", i, b, ok, *m)
			}
			if m.block == b {
				m.valid = false
			}
		}
	}
	if c.age != nil || c.tick != 0 {
		t.Fatalf("direct-mapped SLC kept ages: tick %d", c.tick)
	}
}

func TestSLCInfiniteNeverEvicts(t *testing.T) {
	c := NewSLC(0)
	for b := memsys.Block(0); b < 1000; b++ {
		if _, _, evicted := c.Insert(b, Shared); evicted {
			t.Fatalf("infinite cache evicted on insert of %d", b)
		}
	}
	if valid(c) != 1000 {
		t.Fatalf("Valid = %d, want 1000", valid(c))
	}
	for b := memsys.Block(0); b < 1000; b++ {
		if c.Lookup(b) == nil {
			t.Fatalf("block %d missing", b)
		}
	}
}

// TestSLCInfiniteSlotsStable checks the infinite slab: a line's pointer
// survives the slab growing past many chunks, and an invalidated block's
// slot is reused without disturbing the lines around it.
func TestSLCInfiniteSlotsStable(t *testing.T) {
	c := NewSLC(0)
	first, _, _ := c.Insert(0, Dirty)
	for b := memsys.Block(1); b < 10*slabChunk; b++ {
		c.Insert(b, Shared)
	}
	first.CWCount = 5
	if l := c.Lookup(0); l != first || l.CWCount != 5 || l.State != Dirty {
		t.Fatalf("block 0 moved or changed as the slab grew: %+v", l)
	}
	// Mark block 7's line apart from its neighbours, so a wrong slot shows.
	c.Lookup(7).CWCount = 7
	old, ok := c.Invalidate(7)
	if !ok || old.CWCount != 7 || old.State != Shared || c.Lookup(7) != nil {
		t.Fatalf("Invalidate(7) = %+v, %v", old, ok)
	}
	grown := len(c.slab)
	l, _, _ := c.Insert(100000, Shared)
	if len(c.slab) != grown || c.Lookup(100000) != l || l.CWCount != 0 {
		t.Fatalf("freed slot not reused as a fresh line: slab %d -> %d chunks, line %+v", grown, len(c.slab), l)
	}
	if valid(c) != 10*slabChunk || c.Lookup(6) == nil || c.Lookup(8) == nil {
		t.Fatalf("neighbours disturbed: Valid = %d", valid(c))
	}
}

func TestSLCFiniteDirectMappedConflict(t *testing.T) {
	c := NewSLC(4)
	c.Insert(1, Shared)
	// Block 5 maps to the same frame (5 % 4 == 1).
	line, victim, evicted := c.Insert(5, Dirty)
	if !evicted || victim.Block != 1 {
		t.Fatalf("expected victim block 1, got %v", victim)
	}
	if c.Lookup(5) != line || line.State != Dirty {
		t.Fatalf("inserted line wrong: %+v", line)
	}
	if c.Lookup(1) != nil {
		t.Fatal("victim still present")
	}
}

func TestSLCInsertSameBlockNoVictim(t *testing.T) {
	c := NewSLC(4)
	l, _, _ := c.Insert(2, Shared)
	l.PrefetchBit = true
	l2, _, evicted := c.Insert(2, Dirty)
	if evicted {
		t.Fatal("reinsert of same block reported a victim")
	}
	if l2.PrefetchBit {
		t.Fatal("reinsert did not reset extension bits")
	}
	if l2.State != Dirty {
		t.Fatal("reinsert did not set new state")
	}
}

func TestSLCInvalidate(t *testing.T) {
	c := NewSLC(8)
	c.Insert(3, Dirty)
	old, ok := c.Invalidate(3)
	if !ok || old.State != Dirty {
		t.Fatalf("Invalidate returned %+v, %v", old, ok)
	}
	if c.Lookup(3) != nil {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := c.Invalidate(3); ok {
		t.Fatal("second invalidate returned a line")
	}
	// Invalidate of a conflicting (different) block must not touch the line.
	c.Insert(3, Shared)
	if _, ok := c.Invalidate(11); ok { // 11 % 8 == 3 % 8
		t.Fatal("invalidate of absent conflicting block removed the line")
	}
	if c.Lookup(3) == nil {
		t.Fatal("line lost by invalidate of a different block")
	}
}

// wordCaches returns an infinite and a 2-way finite SLC (2 sets: blocks
// 1, 3 and 5 share set 1) that keep words.
func wordCaches() map[string]*SLC {
	return map[string]*SLC{"infinite": NewSLCAssoc(0, 1, true), "2-way": NewSLCAssoc(4, 2, true)}
}

// TestSLCWordsStartZero checks that a line's words read zero after every
// Insert: into a slot an invalidated block left, and over the same block.
func TestSLCWordsStartZero(t *testing.T) {
	for name, c := range wordCaches() {
		c.Insert(1, Dirty)
		d := c.Words(1)
		if d == nil || *d != (memsys.BlockData{}) {
			t.Fatalf("%s: fresh line's words = %v", name, d)
		}
		d[3] = 7
		if c.Words(1)[3] != 7 {
			t.Fatalf("%s: a word written through Words did not stick", name)
		}
		c.Invalidate(1)
		c.Insert(3, Shared) // reuses block 1's slot (its way, or its free slab slot)
		if d := c.Words(3); d == nil || *d != (memsys.BlockData{}) {
			t.Fatalf("%s: reused slot's words = %v, want zero", name, d)
		}
		c.Words(3)[0] = 9
		c.Insert(3, Dirty)
		if d := c.Words(3); *d != (memsys.BlockData{}) {
			t.Fatalf("%s: reinserted line's words = %v, want zero", name, *d)
		}
	}
}

// TestSLCWordsAbsent checks that Words returns nil for a block the cache
// does not hold, and for every block of a cache that keeps no words.
func TestSLCWordsAbsent(t *testing.T) {
	for name, c := range wordCaches() {
		c.Insert(1, Shared)
		if c.Words(3) != nil {
			t.Fatalf("%s: words for an absent block", name)
		}
		c.Invalidate(1)
		if c.Words(1) != nil {
			t.Fatalf("%s: words for an invalidated block", name)
		}
	}
	for _, c := range []*SLC{NewSLC(0), NewSLCAssoc(4, 2, false)} {
		c.Insert(1, Dirty)
		if c.Words(1) != nil {
			t.Fatalf("%d-frame cache without words returned some", c.Sets())
		}
	}
}

// TestSLCVictimWords checks that an eviction hands the victim's words to
// the caller, and that reading words, unlike Lookup, leaves the LRU
// choice of victim alone.
func TestSLCVictimWords(t *testing.T) {
	c := NewSLCAssoc(4, 2, true)
	c.Insert(1, Dirty)
	c.Words(1)[0] = 11
	c.Insert(3, Dirty)
	c.Words(3)[0] = 33
	c.Words(1) // block 1 stays the LRU way
	_, v, evicted := c.Insert(5, Shared)
	if !evicted || v.Block != 1 || v.State != Dirty || v.Words[0] != 11 {
		t.Fatalf("victim = %+v, evicted %v; want block 1 with word 0 = 11", v, evicted)
	}
	if d := c.Words(5); *d != (memsys.BlockData{}) || c.Words(3)[0] != 33 {
		t.Fatalf("new line's words %v, neighbour's word 0 %d", *d, c.Words(3)[0])
	}

	n := NewSLCAssoc(4, 2, false)
	n.Insert(1, Dirty)
	n.Insert(3, Dirty)
	if _, v, evicted := n.Insert(5, Shared); !evicted || v.Block != 1 || v.Words != (memsys.BlockData{}) {
		t.Fatalf("victim without words = %+v, evicted %v", v, evicted)
	}
}

func TestSLCInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(Invalid) did not panic")
		}
	}()
	NewSLC(4).Insert(0, Invalid)
}

func TestSLCForEach(t *testing.T) {
	for _, sets := range []int{0, 16} {
		c := NewSLC(sets)
		for b := memsys.Block(0); b < 10; b++ {
			c.Insert(b, Shared)
		}
		seen := map[memsys.Block]bool{}
		c.ForEach(func(b memsys.Block, l *Line) {
			if seen[b] || c.Peek(b) != l {
				t.Fatalf("sets=%d: ForEach passed block %d with a line that is not its own", sets, b)
			}
			seen[b] = true
		})
		if len(seen) != 10 {
			t.Fatalf("sets=%d: ForEach visited %d, want 10", sets, len(seen))
		}
	}
}

// Property: a finite SLC holds at most Sets() blocks, and Lookup agrees
// with the most recent Insert/Invalidate for any operation sequence.
func TestSLCConsistencyProperty(t *testing.T) {
	f := func(ops []struct {
		B   uint8
		Inv bool
	}) bool {
		c := NewSLC(8)
		ref := map[memsys.Block]bool{}
		for _, op := range ops {
			b := memsys.Block(op.B % 32)
			if op.Inv {
				c.Invalidate(b)
				delete(ref, b)
			} else {
				c.Insert(b, Shared)
				// Displace any block sharing the frame.
				for rb := range ref {
					if rb%8 == b%8 && rb != b {
						delete(ref, rb)
					}
				}
				ref[b] = true
			}
		}
		if valid(c) > 8 {
			return false
		}
		for b := memsys.Block(0); b < 32; b++ {
			if (c.Lookup(b) != nil) != ref[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFLCBasic(t *testing.T) {
	f := NewFLC(128)
	if f.Lookup(7) {
		t.Fatal("hit in empty FLC")
	}
	f.Fill(7)
	if !f.Lookup(7) {
		t.Fatal("miss after fill")
	}
	// 135 = 7 + 128 conflicts with 7.
	f.Fill(135)
	if f.Lookup(7) {
		t.Fatal("conflicting fill did not displace")
	}
	if !f.Lookup(135) {
		t.Fatal("conflicting fill lost")
	}
	f.Invalidate(135)
	if f.Lookup(135) {
		t.Fatal("hit after invalidate")
	}
	// Invalidating an absent block must not disturb the resident one.
	f.Fill(7)
	f.Invalidate(135)
	if !f.Lookup(7) {
		t.Fatal("invalidate of absent block removed resident block")
	}
}

func TestWriteCacheCombining(t *testing.T) {
	w := NewWriteCache(4)
	if _, ev := w.Write(10, 0); ev {
		t.Fatal("first write evicted")
	}
	if _, ev := w.Write(10, 3); ev {
		t.Fatal("combining write evicted")
	}
	mask, ok := w.Lookup(10)
	if !ok || !mask.Has(0) || !mask.Has(3) || mask.Count() != 2 {
		t.Fatalf("mask = %v ok=%v", mask, ok)
	}
	if w.Combined() != 1 {
		t.Fatalf("Combined = %d, want 1", w.Combined())
	}
}

func TestWriteCacheConflictEviction(t *testing.T) {
	w := NewWriteCache(4)
	w.Write(2, 1)
	victim, evicted := w.Write(6, 0) // 6 % 4 == 2 % 4
	if !evicted || victim.Block != 2 || !victim.Mask.Has(1) {
		t.Fatalf("victim = %+v evicted=%v", victim, evicted)
	}
	if _, ok := w.Lookup(2); ok {
		t.Fatal("victim still allocated")
	}
	if w.Evictions() != 1 {
		t.Fatalf("Evictions = %d", w.Evictions())
	}
}

func TestWriteCacheDrainAll(t *testing.T) {
	w := NewWriteCache(4)
	w.Write(0, 0)
	w.Write(1, 1)
	w.Write(3, 7)
	out := w.DrainAll()
	if len(out) != 3 {
		t.Fatalf("drained %d entries, want 3", len(out))
	}
	if w.Occupancy() != 0 {
		t.Fatal("entries remain after drain")
	}
}

func TestWriteCacheRemove(t *testing.T) {
	w := NewWriteCache(4)
	w.Write(5, 2)
	e, ok := w.Remove(5)
	if !ok || e.Block != 5 || !e.Mask.Has(2) {
		t.Fatalf("Remove = %+v, %v", e, ok)
	}
	if _, ok := w.Remove(5); ok {
		t.Fatal("second remove succeeded")
	}
}

// Property: the mask for a block is exactly the union of words written
// since it was (re)allocated.
func TestWriteCacheMaskProperty(t *testing.T) {
	f := func(words []uint8) bool {
		w := NewWriteCache(4)
		var want memsys.WordMask
		for _, wd := range words {
			w.Write(42, int(wd%8))
			want = want.Set(int(wd % 8))
		}
		if len(words) == 0 {
			_, ok := w.Lookup(42)
			return !ok
		}
		mask, ok := w.Lookup(42)
		return ok && mask == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderAndBounds(t *testing.T) {
	f := NewFIFO[int](3)
	if !f.Empty() || f.Full() {
		t.Fatal("fresh FIFO state wrong")
	}
	f.Push(1)
	f.Push(2)
	f.Push(3)
	if !f.Full() || f.Len() != 3 {
		t.Fatal("FIFO not full after cap pushes")
	}
	if v, _ := f.Peek(); v != 1 {
		t.Fatalf("Peek = %d", v)
	}
	for want := 1; want <= 3; want++ {
		v, ok := f.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop from empty succeeded")
	}
	if f.HighWater != 3 {
		t.Fatalf("HighWater = %d, want 3", f.HighWater)
	}
}

// TestFIFOWrapAround drives the ring across its boundary several times:
// order holds, and Full, Empty, Len and HighWater track the occupancy, not
// the ring position.
func TestFIFOWrapAround(t *testing.T) {
	f := NewFIFO[int](3)
	next, expect := 0, 0
	for round := 0; round < 5; round++ {
		// Two in, two out: the head advances by two per round, so the
		// items straddle the end of the ring on alternate rounds.
		for i := 0; i < 2; i++ {
			f.Push(next)
			next++
		}
		if f.Full() || f.Empty() || f.Len() != 2 {
			t.Fatalf("round %d: Len=%d Full=%v Empty=%v with 2 queued", round, f.Len(), f.Full(), f.Empty())
		}
		if v, _ := f.Peek(); v != expect {
			t.Fatalf("round %d: Peek = %d, want %d", round, v, expect)
		}
		for i := 0; i < 2; i++ {
			if v, ok := f.Pop(); !ok || v != expect {
				t.Fatalf("round %d: Pop = %d,%v, want %d", round, v, ok, expect)
			}
			expect++
		}
		if !f.Empty() || f.Full() {
			t.Fatalf("round %d: drained FIFO not empty", round)
		}
	}
	if f.HighWater != 2 {
		t.Fatalf("HighWater = %d after wrapping at depth 2, want 2", f.HighWater)
	}
	// Fill completely from a head in the middle of the ring.
	for i := 0; i < 3; i++ {
		f.Push(next)
		next++
	}
	if !f.Full() || f.Len() != 3 || f.HighWater != 3 {
		t.Fatalf("Full=%v Len=%d HighWater=%d after filling a wrapped ring", f.Full(), f.Len(), f.HighWater)
	}
	for ; expect < next; expect++ {
		if v, _ := f.Pop(); v != expect {
			t.Fatalf("Pop = %d, want %d", v, expect)
		}
	}
	if _, ok := f.Pop(); ok || !f.Empty() {
		t.Fatal("Pop from drained wrapped ring succeeded")
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("push to full FIFO did not panic")
		}
	}()
	f := NewFIFO[int](1)
	f.Push(1)
	f.Push(2)
}

// Property: FIFO preserves order for any push/pop interleaving that
// respects capacity.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewFIFO[int](8)
		next, expect := 0, 0
		for _, push := range ops {
			if push && !q.Full() {
				q.Push(next)
				next++
			} else if !push {
				if v, ok := q.Pop(); ok {
					if v != expect {
						return false
					}
					expect++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
