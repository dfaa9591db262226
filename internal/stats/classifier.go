package stats

import "ccsim/internal/memsys"

// blockHist is the per-(processor, block) history needed to classify the
// next miss to that block.
type blockHist uint8

const (
	neverCached blockHist = iota
	cached
	evicted     // left the cache by replacement
	invalidated // left the cache by a coherence action
)

// Classifier implements the standard cold / coherence / replacement miss
// taxonomy. One Classifier serves one processor's SLC; the cache calls
// Fill, Evict and Invalidate as lines come and go, and Classify on each
// demand read miss.
type Classifier struct {
	hist memsys.Table[blockHist]
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier { return &Classifier{} }

// of returns block b's history without allocating.
func (c *Classifier) of(b memsys.Block) blockHist {
	if h := c.hist.Get(b); h != nil {
		return *h
	}
	return neverCached
}

// Classify returns the kind of a demand miss to block b.
func (c *Classifier) Classify(b memsys.Block) MissKind {
	switch c.of(b) {
	case neverCached:
		return Cold
	case invalidated:
		return Coherence
	default: // evicted, or (defensively) cached — a miss on a cached block
		// can only mean the line was displaced without notice; count it as
		// replacement.
		return Replacement
	}
}

// Fill records that block b is now cached.
func (c *Classifier) Fill(b memsys.Block) { *c.hist.At(b) = cached }

// Evict records that block b was replaced to make room.
func (c *Classifier) Evict(b memsys.Block) {
	if h := c.hist.Get(b); h != nil && *h == cached {
		*h = evicted
	}
}

// Invalidate records that block b was removed by a coherence action
// (invalidation message, update-counter expiry, or migratory transfer).
func (c *Classifier) Invalidate(b memsys.Block) {
	if h := c.hist.Get(b); h != nil && *h == cached {
		*h = invalidated
	}
}

// Seen reports whether block b has ever been cached by this processor.
func (c *Classifier) Seen(b memsys.Block) bool { return c.of(b) != neverCached }
