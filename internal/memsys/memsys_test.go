package memsys

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGeometryConstants(t *testing.T) {
	if WordsPerBlock != 8 {
		t.Errorf("WordsPerBlock = %d, want 8", WordsPerBlock)
	}
	if BlocksPerPage != 128 {
		t.Errorf("BlocksPerPage = %d, want 128", BlocksPerPage)
	}
}

// TestBlockDataSize pins a block's verification words at one 32-bit
// version per word. Every store of them is sized by it: the payload of each
// protocol message, the SLC's word slab, each writeback buffer entry,
// memory's words and the per-processor and checker tables of a verifying
// run.
func TestBlockDataSize(t *testing.T) {
	if n := unsafe.Sizeof(BlockData{}); n != 32 {
		t.Errorf("BlockData is %d bytes, want 32", n)
	}
}

func TestBlockOf(t *testing.T) {
	cases := []struct {
		a Addr
		b Block
	}{
		{0, 0}, {31, 0}, {32, 1}, {63, 1}, {64, 2}, {4095, 127}, {4096, 128},
	}
	for _, c := range cases {
		if got := BlockOf(c.a); got != c.b {
			t.Errorf("BlockOf(%d) = %d, want %d", c.a, got, c.b)
		}
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		b := BlockOf(a)
		return b.Addr() <= a && a < b.Addr()+BlockSize && BlockOf(b.Addr()) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordIndex(t *testing.T) {
	if WordIndex(0) != 0 || WordIndex(4) != 1 || WordIndex(28) != 7 || WordIndex(32) != 0 {
		t.Errorf("WordIndex wrong: %d %d %d %d",
			WordIndex(0), WordIndex(4), WordIndex(28), WordIndex(32))
	}
	// Any byte in a word maps to the same index.
	if WordIndex(5) != 1 || WordIndex(7) != 1 {
		t.Error("WordIndex not stable within a word")
	}
}

func TestHomeOfRoundRobin(t *testing.T) {
	const nodes = 16
	// Every block of a page has the same home; consecutive pages cycle
	// through the nodes.
	for p := Page(0); p < 40; p++ {
		first := Block(uint64(p) * BlocksPerPage)
		home := HomeOf(first, nodes)
		if home != int(p)%nodes {
			t.Fatalf("page %d home = %d, want %d", p, home, int(p)%nodes)
		}
		for i := 0; i < BlocksPerPage; i++ {
			if HomeOf(first.Next(i), nodes) != home {
				t.Fatalf("block %d of page %d has a different home", i, p)
			}
		}
	}
}

func TestHomeOfInRangeProperty(t *testing.T) {
	f := func(b Block, n uint8) bool {
		nodes := int(n%64) + 1
		h := HomeOf(b, nodes)
		return h >= 0 && h < nodes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordMask(t *testing.T) {
	var m WordMask
	if m.Count() != 0 || m.Bytes() != 0 {
		t.Fatal("zero mask not empty")
	}
	m = m.Set(0).Set(7).Set(3)
	if !m.Has(0) || !m.Has(3) || !m.Has(7) || m.Has(1) {
		t.Fatalf("mask bits wrong: %s", m)
	}
	if m.Count() != 3 || m.Bytes() != 12 {
		t.Fatalf("Count=%d Bytes=%d, want 3/12", m.Count(), m.Bytes())
	}
	if FullMask.Count() != WordsPerBlock || FullMask.Bytes() != BlockSize {
		t.Fatal("FullMask does not cover the block")
	}
}

func TestWordMaskSetIdempotentProperty(t *testing.T) {
	f := func(m WordMask, w uint8) bool {
		i := int(w % WordsPerBlock)
		once := m.Set(i)
		return once == once.Set(i) && once.Has(i) && once.Count() >= m.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
