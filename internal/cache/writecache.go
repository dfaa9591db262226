package cache

import "ccsim/internal/memsys"

// WCEntry is one block frame of the write cache: which block it buffers and
// the per-word dirty/valid bits (paper §3.3: "To keep track of the modified
// words in a block of the write cache, a dirty/valid bit is associated with
// each word").
type WCEntry struct {
	Valid bool
	Block memsys.Block
	Mask  memsys.WordMask
}

// WriteCache is the small direct-mapped cache that allocates blocks on
// write requests only and combines consecutive writes to the same block
// before they are issued (paper §3.3). The recommended size is four blocks.
type WriteCache struct {
	entries []WCEntry
	drained []WCEntry // DrainAll's reused result
	// Statistics.
	writes    uint64
	combined  uint64 // writes merged into an already-allocated entry
	evictions uint64
}

// NewWriteCache returns a write cache with the given number of block
// frames.
func NewWriteCache(blocks int) *WriteCache {
	return &WriteCache{entries: make([]WCEntry, blocks)}
}

// Size returns the number of block frames.
func (w *WriteCache) Size() int { return len(w.entries) }

func (w *WriteCache) idx(b memsys.Block) int {
	return int(uint64(b) % uint64(len(w.entries)))
}

// Write records a write to word word of block b, allocating a frame if
// needed. If the frame held a different block, that block is victimized and
// returned so the controller can flush it to home.
//
// Accounting contract: every call counts as exactly one write (the
// processor committed a write to the cache), a call that merges into an
// already-allocated entry additionally counts as combined, and a call that
// victimizes another block additionally counts as an eviction — so
// writes == allocations + combined, and combined/writes is the combining
// rate. A caller that may back off (the SLC controller stalls the write
// when WouldEvict finds the second-level write buffer full) must consult
// WouldEvict *before* calling Write: WouldEvict is a pure query and
// counts nothing, so a stalled-and-retried write is counted once, when it
// finally commits.
func (w *WriteCache) Write(b memsys.Block, word int) (victim WCEntry, evicted bool) {
	w.writes++
	e := &w.entries[w.idx(b)]
	if e.Valid && e.Block == b {
		w.combined++
		e.Mask = e.Mask.Set(word)
		return WCEntry{}, false
	}
	if e.Valid {
		victim, evicted = *e, true
		w.evictions++
	}
	*e = WCEntry{Valid: true, Block: b, Mask: memsys.WordMask(0).Set(word)}
	return victim, evicted
}

// WouldEvict reports whether a Write to block b would victimize another
// block's entry, so the controller can check buffer space before committing.
func (w *WriteCache) WouldEvict(b memsys.Block) bool {
	e := &w.entries[w.idx(b)]
	return e.Valid && e.Block != b
}

// Lookup returns the dirty-word mask for block b, or ok=false if b is not
// allocated.
func (w *WriteCache) Lookup(b memsys.Block) (mask memsys.WordMask, ok bool) {
	e := &w.entries[w.idx(b)]
	if e.Valid && e.Block == b {
		return e.Mask, true
	}
	return 0, false
}

// Remove deallocates block b (after its update has been issued) and
// returns its entry.
func (w *WriteCache) Remove(b memsys.Block) (WCEntry, bool) {
	e := &w.entries[w.idx(b)]
	if e.Valid && e.Block == b {
		v := *e
		e.Valid = false
		return v, true
	}
	return WCEntry{}, false
}

// DrainAll removes and returns every valid entry, in frame order. Used at
// releases, when all combined writes must be propagated. The slice is
// reused by the next call.
func (w *WriteCache) DrainAll() []WCEntry {
	w.drained = w.drained[:0]
	for i := range w.entries {
		if w.entries[i].Valid {
			w.drained = append(w.drained, w.entries[i])
			w.entries[i].Valid = false
		}
	}
	return w.drained
}

// Occupancy returns the number of valid entries.
func (w *WriteCache) Occupancy() int {
	n := 0
	for i := range w.entries {
		if w.entries[i].Valid {
			n++
		}
	}
	return n
}

// Writes returns the total writes recorded.
func (w *WriteCache) Writes() uint64 { return w.writes }

// Combined returns how many writes merged into an existing entry — the
// write-traffic reduction the write cache exists for.
func (w *WriteCache) Combined() uint64 { return w.combined }

// Evictions returns how many entries were victimized by conflicts.
func (w *WriteCache) Evictions() uint64 { return w.evictions }
