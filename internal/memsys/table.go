package memsys

import "slices"

// Table is per-block state kept the way the machine's hardware keeps it: an
// array indexed by block number. Addresses span 64 bits, so the array is
// sparse, allocated one page of BlocksPerPage entries at a time on first
// touch. The zero Table is empty and ready to use.
//
// An entry's storage never moves once its page exists: a *T stays valid for
// the table's lifetime. A block never written reads as T's zero value.
type Table[T any] struct {
	pages map[Page]*[BlocksPerPage]T
	order []Page // allocated pages, ascending

	// The last page looked up: consecutive lookups mostly hit one page.
	lastPage Page
	last     *[BlocksPerPage]T
}

// At returns block b's entry, allocating its page on first touch.
func (t *Table[T]) At(b Block) *T {
	pg := PageOfBlock(b)
	p := t.page(pg)
	if p == nil {
		if t.pages == nil {
			t.pages = make(map[Page]*[BlocksPerPage]T)
		}
		p = new([BlocksPerPage]T)
		t.pages[pg] = p
		i, _ := slices.BinarySearch(t.order, pg)
		t.order = slices.Insert(t.order, i, pg)
		t.lastPage, t.last = pg, p
	}
	return &p[b%BlocksPerPage]
}

// Get returns block b's entry, or nil when no block of b's page was ever
// touched. It never allocates.
func (t *Table[T]) Get(b Block) *T {
	if p := t.page(PageOfBlock(b)); p != nil {
		return &p[b%BlocksPerPage]
	}
	return nil
}

func (t *Table[T]) page(pg Page) *[BlocksPerPage]T {
	if t.last != nil && t.lastPage == pg {
		return t.last
	}
	p := t.pages[pg]
	if p != nil {
		t.lastPage, t.last = pg, p
	}
	return p
}

// ForEach calls fn for every entry of every allocated page, in ascending
// block order, untouched entries of those pages included.
func (t *Table[T]) ForEach(fn func(Block, *T)) {
	for _, pg := range t.order {
		p := t.pages[pg]
		base := Block(pg) * BlocksPerPage
		for i := range p {
			fn(base+Block(i), &p[i])
		}
	}
}
