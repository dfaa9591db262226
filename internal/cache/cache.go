// Package cache provides the cache data structures of a processor node: the
// first-level cache (FLC) tag array, the second-level cache (SLC) with the
// per-line state the protocol extensions need, the FIFO write buffers
// (FLWB/SLWB capacity is enforced by their owners), and the small write
// cache used by the competitive-update extension. Controller logic lives in
// internal/core; these types only hold state, which keeps every structure
// directly unit-testable.
package cache

import "ccsim/internal/memsys"

// LineState is an SLC line's stable coherence state. The SLC needs no
// transient states because pending accesses are kept in the SLWB (paper §2).
type LineState int

const (
	Invalid LineState = iota
	Shared
	Dirty
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Dirty:
		return "D"
	}
	return "?"
}

// Line is one SLC line plus the per-line bits each extension adds
// (paper Table 1).
type Line struct {
	Block memsys.Block
	State LineState

	// P: set when the block arrived by prefetch and has not yet been
	// referenced by the processor (one of P's two bits per line).
	PrefetchBit bool

	// CW: remaining competitive count; a foreign update when the counter is
	// zero invalidates the copy. Preset on load and on every local access.
	CWCount int

	// CW+M: set when the processor has written the block since the last
	// update left for home (the extra bit migratory detection needs).
	LocallyModified bool

	// M: the "extra state" of the migratory optimization — set when the
	// copy was supplied exclusively by a migratory read miss; Written
	// records whether the processor has actually written it since, which
	// decides whether the home reverts the block to ordinary sharing.
	MigSupplied bool
	Written     bool

	// Data carries the block's word versions when data verification is on.
	Data memsys.BlockData
}

// SLC is the second-level cache. frames == 0 selects the paper's default
// infinite cache (every block has its own frame); otherwise the cache has
// that many one-block frames arranged in ways-associative sets with LRU
// replacement (ways == 1 is the paper's direct-mapped organization).
type SLC struct {
	frames int
	ways   int
	nsets  int
	array  []Line   // nsets * ways
	age    []uint64 // LRU timestamps, parallel to array
	tick   uint64

	// Infinite mode keeps its lines in a slab of fixed-size chunks, so a
	// slot never moves and a *Line stays valid while its block is cached;
	// inf maps each cached block to its slot, and invalidated slots are
	// reused before the slab grows.
	inf   map[memsys.Block]int32
	slab  [][]Line
	slots int32 // slots handed out so far
	free  []int32
}

// slabChunk is the infinite-mode slab's growth step, in lines. Small
// chunks keep a short run's footprint near its working set.
const slabChunk = 64

// NewSLC returns a direct-mapped SLC with the given number of frames, or an
// infinite one if frames == 0.
func NewSLC(frames int) *SLC { return NewSLCAssoc(frames, 1) }

// NewSLCAssoc returns a ways-associative SLC with the given total frame
// count (frames must be a multiple of ways), or an infinite one if
// frames == 0.
func NewSLCAssoc(frames, ways int) *SLC {
	if ways < 1 {
		panic("cache: SLC needs at least one way")
	}
	c := &SLC{frames: frames, ways: ways}
	if frames == 0 {
		c.inf = make(map[memsys.Block]int32)
		return c
	}
	if frames%ways != 0 {
		panic("cache: SLC frame count not a multiple of the associativity")
	}
	c.nsets = frames / ways
	c.array = make([]Line, frames)
	c.age = make([]uint64, frames)
	return c
}

// Sets returns the frame count (0 = infinite).
func (c *SLC) Sets() int { return c.frames }

// Ways returns the associativity.
func (c *SLC) Ways() int { return c.ways }

// set returns the index range [lo, hi) of block b's set.
func (c *SLC) set(b memsys.Block) (lo, hi int) {
	s := int(uint64(b) % uint64(c.nsets))
	return s * c.ways, (s + 1) * c.ways
}

// slot returns infinite-mode slab slot i.
func (c *SLC) slot(i int32) *Line { return &c.slab[i/slabChunk][i%slabChunk] }

// newSlot returns a free infinite-mode slot, growing the slab by a chunk
// when every slot is in use.
func (c *SLC) newSlot() int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		return i
	}
	i := c.slots
	if int(i/slabChunk) == len(c.slab) {
		c.slab = append(c.slab, make([]Line, slabChunk))
	}
	c.slots++
	return i
}

// Lookup returns the line holding block b, or nil if b is not present in a
// valid state. A hit refreshes the line's LRU age.
func (c *SLC) Lookup(b memsys.Block) *Line {
	if c.frames == 0 {
		if i, ok := c.inf[b]; ok {
			return c.slot(i)
		}
		return nil
	}
	lo, hi := c.set(b)
	for i := lo; i < hi; i++ {
		l := &c.array[i]
		if l.State != Invalid && l.Block == b {
			c.tick++
			c.age[i] = c.tick
			return l
		}
	}
	return nil
}

// Insert installs block b in state st and returns its line. If a valid line
// holding a different block had to be displaced (the set's LRU way), its
// content is returned as victim with evicted set. Inserting over an
// existing line for the same block resets the extension bits (a fresh
// fill).
func (c *SLC) Insert(b memsys.Block, st LineState) (line *Line, victim Line, evicted bool) {
	if st == Invalid {
		panic("cache: inserting an invalid line")
	}
	if c.frames == 0 {
		i, ok := c.inf[b]
		if !ok {
			i = c.newSlot()
			c.inf[b] = i
		}
		l := c.slot(i)
		*l = Line{Block: b, State: st}
		return l, Line{}, false
	}
	lo, hi := c.set(b)
	slot := -1
	for i := lo; i < hi; i++ {
		l := &c.array[i]
		if l.State != Invalid && l.Block == b {
			slot = i
			break
		}
		if l.State == Invalid && slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		// Set full: evict the least recently used way.
		slot = lo
		for i := lo + 1; i < hi; i++ {
			if c.age[i] < c.age[slot] {
				slot = i
			}
		}
		victim, evicted = c.array[slot], true
	}
	c.tick++
	c.age[slot] = c.tick
	c.array[slot] = Line{Block: b, State: st}
	return &c.array[slot], victim, evicted
}

// Invalidate removes block b if present and returns the line content it had
// (ok is false if it was not present). A *Line for b obtained earlier must
// not be used afterwards: its slot may be refilled.
func (c *SLC) Invalidate(b memsys.Block) (old Line, ok bool) {
	if c.frames == 0 {
		i, ok := c.inf[b]
		if !ok {
			return Line{}, false
		}
		delete(c.inf, b)
		c.free = append(c.free, i)
		return *c.slot(i), true
	}
	lo, hi := c.set(b)
	for i := lo; i < hi; i++ {
		l := &c.array[i]
		if l.State != Invalid && l.Block == b {
			v := *l
			l.State = Invalid
			return v, true
		}
	}
	return Line{}, false
}

// Valid returns the number of valid lines (O(frames) for finite caches).
func (c *SLC) Valid() int {
	if c.frames == 0 {
		return len(c.inf)
	}
	n := 0
	for i := range c.array {
		if c.array[i].State != Invalid {
			n++
		}
	}
	return n
}

// ForEach calls fn for every valid line. Iteration order is unspecified in
// infinite mode; fn must not insert or invalidate.
func (c *SLC) ForEach(fn func(*Line)) {
	if c.frames == 0 {
		for _, i := range c.inf {
			fn(c.slot(i))
		}
		return
	}
	for i := range c.array {
		if c.array[i].State != Invalid {
			fn(&c.array[i])
		}
	}
}

// FLC is the first-level cache tag array: 4 KB direct-mapped, write-through,
// no allocation on write misses (paper §2). Only read hits matter for
// timing, so it holds tags only.
type FLC struct {
	sets  int
	tags  []memsys.Block
	valid []bool
}

// NewFLC returns an FLC with the given number of one-block frames.
func NewFLC(sets int) *FLC {
	return &FLC{sets: sets, tags: make([]memsys.Block, sets), valid: make([]bool, sets)}
}

func (f *FLC) idx(b memsys.Block) int { return int(uint64(b) % uint64(f.sets)) }

// Lookup reports whether block b hits.
func (f *FLC) Lookup(b memsys.Block) bool {
	i := f.idx(b)
	return f.valid[i] && f.tags[i] == b
}

// Fill installs block b (displacing whatever shared the frame).
func (f *FLC) Fill(b memsys.Block) {
	i := f.idx(b)
	f.tags[i] = b
	f.valid[i] = true
}

// Invalidate removes block b if present (inclusion with the SLC).
func (f *FLC) Invalidate(b memsys.Block) {
	i := f.idx(b)
	if f.valid[i] && f.tags[i] == b {
		f.valid[i] = false
	}
}
