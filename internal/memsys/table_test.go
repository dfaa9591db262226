package memsys

import "testing"

func TestTableZeroValue(t *testing.T) {
	var tb Table[int]
	if p := tb.Get(5); p != nil {
		t.Fatalf("Get on an empty table = %v, want nil", *p)
	}
	if v := *tb.At(5); v != 0 {
		t.Fatalf("fresh entry = %d, want 0", v)
	}
	// The page now exists: its untouched blocks read as zero too.
	if p := tb.Get(6); p == nil || *p != 0 {
		t.Fatalf("untouched entry of an allocated page = %v, want 0", p)
	}
	if p := tb.Get(BlocksPerPage); p != nil {
		t.Fatal("Get allocated or found the next page")
	}
}

func TestTablePointersStable(t *testing.T) {
	var tb Table[int]
	first := tb.At(3)
	*first = 42
	// Allocate many later pages (and revisit the first between them, so the
	// last-page cache moves); the first entry must not move.
	for pg := 1; pg < 200; pg++ {
		*tb.At(Block(pg*BlocksPerPage + pg%BlocksPerPage)) = pg
		if tb.At(3) != first {
			t.Fatalf("entry of block 3 moved after page %d was allocated", pg)
		}
	}
	if *first != 42 || *tb.Get(3) != 42 {
		t.Fatalf("entry of block 3 = %d, want 42", *first)
	}
	for pg := 1; pg < 200; pg++ {
		if got := *tb.Get(Block(pg*BlocksPerPage + pg%BlocksPerPage)); got != pg {
			t.Fatalf("page %d entry = %d, want %d", pg, got, pg)
		}
	}
}

func TestTableSparseExtremes(t *testing.T) {
	var tb Table[int]
	const far = Block(1) << 57
	const top = far + BlocksPerPage - 1 // last block of far's page
	*tb.At(0) = 1
	*tb.At(far) = 2
	*tb.At(top) = 3
	if *tb.Get(0) != 1 || *tb.Get(far) != 2 || *tb.Get(top) != 3 {
		t.Fatalf("entries = %d %d %d, want 1 2 3", *tb.Get(0), *tb.Get(far), *tb.Get(top))
	}
	if tb.Get(far-1) != nil || tb.Get(far+BlocksPerPage) != nil {
		t.Fatal("neighbouring pages of block 2^57 exist without a touch")
	}
}

func TestTableForEachAscending(t *testing.T) {
	var tb Table[int]
	// Touch pages out of order, including one far above the rest.
	for _, b := range []Block{1 << 57, 900, 5, 3 * BlocksPerPage, 130} {
		*tb.At(b) = int(b%97) + 1
	}
	var seen []Block
	set := 0
	tb.ForEach(func(b Block, v *int) {
		if n := len(seen); n > 0 && b <= seen[n-1] {
			t.Fatalf("block %d visited after %d", b, seen[n-1])
		}
		seen = append(seen, b)
		if *v != 0 {
			set++
			if *v != int(b%97)+1 {
				t.Fatalf("block %d = %d, want %d", b, *v, int(b%97)+1)
			}
		}
	})
	// Five touched blocks on five distinct pages: every entry of each page
	// is visited once.
	if len(seen) != 5*BlocksPerPage || set != 5 {
		t.Fatalf("visited %d entries (%d set), want %d (5 set)", len(seen), set, 5*BlocksPerPage)
	}
}
