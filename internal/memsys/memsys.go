// Package memsys defines the memory-system geometry of the simulated
// machine: 4-byte words, 32-byte cache blocks, 4-KB pages, and the
// round-robin allocation of pages to home nodes that the paper specifies
// ("memory pages of size 4 Kbytes are allocated across nodes in a
// round-robin fashion based on the least significant bits of the virtual
// page number").
package memsys

import "fmt"

// Geometry constants (paper §4).
const (
	WordSize      = 4                    // bytes per word (SPARC word)
	BlockSize     = 32                   // bytes per cache block
	PageSize      = 4096                 // bytes per page
	WordsPerBlock = BlockSize / WordSize // 8
	BlocksPerPage = PageSize / BlockSize // 128
)

// Addr is a byte address in the shared virtual address space (which the
// simulator identity-maps to physical).
type Addr uint64

// Block is a block number: Addr >> 5.
type Block uint64

// Page is a page number: Addr >> 12.
type Page uint64

// BlockOf returns the block containing a.
func BlockOf(a Addr) Block { return Block(a / BlockSize) }

// PageOfBlock returns the page containing block b.
func PageOfBlock(b Block) Page { return Page(b / BlocksPerPage) }

// Addr returns the first byte address of block b.
func (b Block) Addr() Addr { return Addr(b) * BlockSize }

// Next returns the block k blocks after b in the address space.
func (b Block) Next(k int) Block { return b + Block(k) }

// WordIndex returns the index (0..7) of the word containing a within its
// block.
func WordIndex(a Addr) int { return int(a/WordSize) % WordsPerBlock }

// HomeOf returns the node whose memory holds block b, given the machine's
// node count: round-robin by page number.
func HomeOf(b Block, nodes int) int {
	return int(PageOfBlock(b)) % nodes
}

// WordMask is a bitmask over the 8 words of a block; used for the write
// cache's per-word dirty/valid bits and for selective updates.
type WordMask uint8

// FullMask marks every word of a block.
const FullMask WordMask = (1 << WordsPerBlock) - 1

// Set returns m with word w marked.
func (m WordMask) Set(w int) WordMask { return m | 1<<uint(w) }

// Has reports whether word w is marked.
func (m WordMask) Has(w int) bool { return m&(1<<uint(w)) != 0 }

// Count returns the number of marked words.
func (m WordMask) Count() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Bytes returns the number of data bytes the mask selects.
func (m WordMask) Bytes() int { return m.Count() * WordSize }

func (m WordMask) String() string { return fmt.Sprintf("%08b", uint8(m)) }

// BlockData models a block's contents as one version number per word. The
// simulator does not carry application data; it carries these versions so
// the machine can verify the data-value invariant of coherence — a
// processor never observes a location's value moving backward in time. A
// word's version counts the writes to that one word, so 32 bits hold it:
// the serialization point faults rather than wrap past math.MaxInt32.
type BlockData [WordsPerBlock]int32

// Merge overwrites the words selected by mask with src's values.
func (d *BlockData) Merge(src BlockData, mask WordMask) {
	for w := 0; w < WordsPerBlock; w++ {
		if mask.Has(w) {
			d[w] = src[w]
		}
	}
}
