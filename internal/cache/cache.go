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
type LineState uint8

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

// Line is one SLC line's state plus the per-line bits each extension adds
// (paper Table 1). It holds no block number: the infinite cache's index
// maps each block to its line, and a finite cache keeps each frame's block
// beside its line. Its counters are 32-bit, so a line takes 16 bytes.
type Line struct {
	State LineState

	// CW: remaining competitive count; a foreign update when the counter is
	// zero invalidates the copy. Preset on load and on every local access
	// (core.Params bounds the threshold to an int32).
	CWCount int32

	// P: set when the block arrived by prefetch and has not yet been
	// referenced by the processor (one of P's two bits per line).
	PrefetchBit bool

	// CW+M: set when the processor has written the block since the last
	// update left for home (the extra bit migratory detection needs).
	LocallyModified bool

	// M: the "extra state" of the migratory optimization — set when the
	// copy was supplied exclusively by a migratory read miss; Written
	// records whether the processor has actually written it since, which
	// decides whether the home reverts the block to ordinary sharing.
	MigSupplied bool
	Written     bool

	// Grant is the home's grant generation of a Dirty line: a line only
	// becomes Dirty by a grant, and its writeback carries this stamp so the
	// home can tell a current writeback from a stale one. It would wrap
	// only after 2^31 exclusive grants of one block.
	Grant int32
}

// Victim is a line Insert displaced, with its block and its verification
// words (zero when the cache keeps none).
type Victim struct {
	Block memsys.Block
	Line
	Words memsys.BlockData
}

// SLC is the second-level cache. frames == 0 selects the paper's default
// infinite cache (every block has its own frame); otherwise the cache has
// that many one-block frames arranged in ways-associative sets with LRU
// replacement (ways == 1 is the paper's direct-mapped organization, which
// has one candidate per set and so keeps no LRU ages).
//
// A cache built to keep words holds each line's verification words (see
// memsys.BlockData) beside the line, outside Line itself, so a run that
// does not verify data carries none.
type SLC struct {
	frames int
	ways   int
	nsets  int
	array  []frame  // nsets * ways
	age    []uint64 // LRU timestamps, parallel to array; nil when ways == 1
	tick   uint64

	keepWords bool
	words     []memsys.BlockData // finite mode: parallel to array, when keepWords

	// Infinite mode keeps its lines in a slab of fixed-size chunks, so a
	// slot never moves and a *Line stays valid while its block is cached;
	// inf holds each cached block's slot plus one (0: not cached), and
	// invalidated slots are reused before the slab grows.
	inf   memsys.Table[int32]
	slab  []chunk
	slots int32 // slots handed out so far
	free  []int32
}

// frame is one finite-mode frame: the block it holds and its line.
type frame struct {
	block memsys.Block
	line  Line
}

// slabChunk is the infinite-mode slab's growth step, in lines. Small
// chunks keep a short run's footprint near its working set.
const slabChunk = 64

// chunk is one infinite-mode slab step: its lines and, when the cache keeps
// words, their words, which come from the same allocation.
type chunk struct {
	lines []Line
	words []memsys.BlockData
}

// NewSLCAssoc returns a ways-associative SLC with the given total frame
// count (frames must be a multiple of ways), or an infinite one if
// frames == 0. keepWords gives every line verification words (see Words).
func NewSLCAssoc(frames, ways int, keepWords bool) *SLC {
	if ways < 1 {
		panic("cache: SLC needs at least one way")
	}
	c := &SLC{frames: frames, ways: ways, keepWords: keepWords}
	if frames == 0 {
		return c
	}
	if frames%ways != 0 {
		panic("cache: SLC frame count not a multiple of the associativity")
	}
	c.nsets = frames / ways
	c.array = make([]frame, frames)
	if ways > 1 {
		c.age = make([]uint64, frames)
	}
	if keepWords {
		c.words = make([]memsys.BlockData, frames)
	}
	return c
}

// set returns the index range [lo, hi) of block b's set.
func (c *SLC) set(b memsys.Block) (lo, hi int) {
	s := int(uint64(b) % uint64(c.nsets))
	return s * c.ways, (s + 1) * c.ways
}

// find returns the frame holding block b in a valid state, or -1 (finite
// mode only).
func (c *SLC) find(b memsys.Block) int {
	lo, hi := c.set(b)
	for i := lo; i < hi; i++ {
		if f := &c.array[i]; f.line.State != Invalid && f.block == b {
			return i
		}
	}
	return -1
}

// touch makes frame i the most recently used of its set.
func (c *SLC) touch(i int) {
	if c.age != nil {
		c.tick++
		c.age[i] = c.tick
	}
}

// slot returns infinite-mode slab slot i.
func (c *SLC) slot(i int32) *Line { return &c.slab[i/slabChunk].lines[i%slabChunk] }

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
		if c.keepWords {
			lw := new(struct {
				lines [slabChunk]Line
				words [slabChunk]memsys.BlockData
			})
			c.slab = append(c.slab, chunk{lw.lines[:], lw.words[:]})
		} else {
			c.slab = append(c.slab, chunk{lines: make([]Line, slabChunk)})
		}
	}
	c.slots++
	return i
}

// Lookup returns the line holding block b, or nil if b is not present in a
// valid state. A hit refreshes the line's LRU age.
func (c *SLC) Lookup(b memsys.Block) *Line {
	if c.frames == 0 {
		if p := c.inf.Get(b); p != nil && *p != 0 {
			return c.slot(*p - 1)
		}
		return nil
	}
	i := c.find(b)
	if i < 0 {
		return nil
	}
	c.touch(i)
	return &c.array[i].line
}

// Peek is Lookup without the LRU refresh: a check that reads the cache
// leaves its replacement order as it found it.
func (c *SLC) Peek(b memsys.Block) *Line {
	if c.frames == 0 {
		return c.Lookup(b) // infinite mode keeps no ages
	}
	if i := c.find(b); i >= 0 {
		return &c.array[i].line
	}
	return nil
}

// Insert installs block b in state st and returns its line. If a valid line
// holding a different block had to be displaced (the set's LRU way), its
// content and words are returned as victim with evicted set. Inserting over
// an existing line for the same block resets the extension bits (a fresh
// fill). Either way the line's words start at zero.
func (c *SLC) Insert(b memsys.Block, st LineState) (line *Line, victim Victim, evicted bool) {
	if st == Invalid {
		panic("cache: inserting an invalid line")
	}
	if c.frames == 0 {
		p := c.inf.At(b)
		if *p == 0 {
			*p = c.newSlot() + 1
		}
		i := *p - 1
		l := c.slot(i)
		*l = Line{State: st}
		if c.keepWords {
			c.slab[i/slabChunk].words[i%slabChunk] = memsys.BlockData{}
		}
		return l, Victim{}, false
	}
	lo, hi := c.set(b)
	slot := -1
	for i := lo; i < hi; i++ {
		f := &c.array[i]
		if f.line.State != Invalid && f.block == b {
			slot = i
			break
		}
		if f.line.State == Invalid && slot < 0 {
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
		victim.Block, victim.Line, evicted = c.array[slot].block, c.array[slot].line, true
		if c.keepWords {
			victim.Words = c.words[slot]
		}
	}
	c.touch(slot)
	c.array[slot] = frame{block: b, line: Line{State: st}}
	if c.keepWords {
		c.words[slot] = memsys.BlockData{}
	}
	return &c.array[slot].line, victim, evicted
}

// Words returns the verification words of block b's line, or nil when b is
// not cached or the cache keeps no words. Unlike Lookup it leaves the LRU
// ages alone, so a run that reads words replaces exactly the lines a run
// that does not would.
func (c *SLC) Words(b memsys.Block) *memsys.BlockData {
	if !c.keepWords {
		return nil
	}
	if c.frames == 0 {
		if p := c.inf.Get(b); p != nil && *p != 0 {
			i := *p - 1
			return &c.slab[i/slabChunk].words[i%slabChunk]
		}
		return nil
	}
	if i := c.find(b); i >= 0 {
		return &c.words[i]
	}
	return nil
}

// Invalidate removes block b if present and returns the line content it had
// (ok is false if it was not present). A *Line for b obtained earlier must
// not be used afterwards: its slot may be refilled.
func (c *SLC) Invalidate(b memsys.Block) (old Line, ok bool) {
	if c.frames == 0 {
		p := c.inf.Get(b)
		if p == nil || *p == 0 {
			return Line{}, false
		}
		i := *p - 1
		*p = 0
		c.free = append(c.free, i)
		return *c.slot(i), true
	}
	if i := c.find(b); i >= 0 {
		v := c.array[i].line
		c.array[i].line.State = Invalid
		return v, true
	}
	return Line{}, false
}

// ForEach calls fn for every valid line and its block: in ascending block
// order in infinite mode, in frame order otherwise. fn must not insert or
// invalidate.
func (c *SLC) ForEach(fn func(memsys.Block, *Line)) {
	if c.frames == 0 {
		c.inf.ForEach(func(b memsys.Block, i *int32) {
			if *i != 0 {
				fn(b, c.slot(*i-1))
			}
		})
		return
	}
	for i := range c.array {
		if f := &c.array[i]; f.line.State != Invalid {
			fn(f.block, &f.line)
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
