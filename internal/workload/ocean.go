package workload

import (
	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// Ocean reproduces the reference behavior of the Ocean grid solver (128x128
// grid in the paper): the grid is partitioned by rows; each iteration every
// processor sweeps its rows with a five-point nearest-neighbor stencil and
// a barrier closes the iteration. Interior rows stay dirty in their owner's
// cache; the two boundary rows of every partition are read by the adjacent
// processor each iteration and rewritten by the owner — the steady
// producer-consumer coherence misses that the competitive-update mechanism
// removes (paper Table 2: Ocean coherence 1.12 % -> 0.15 % under CW).
// Rows are block-aligned and sequential, so prefetching feeds on the sweep.
// Default here: a 128x128-word grid over 10 iterations.
func Ocean(procs int, scale float64) []proc.Stream {
	g := scaled(128, scale, procs*2)
	iters := scaled(10, scale, 3)
	if iters > 10 {
		iters = 10
	}
	blocksPerRow := (g + memsys.WordsPerBlock - 1) / memsys.WordsPerBlock

	rowBlock := func(r, b int) memsys.Addr {
		return dataBase + memsys.Addr(r*blocksPerRow+b)*memsys.BlockSize
	}

	// Each iteration is one segment per owned row, up to three reads, a
	// busy and a write per block, then one for the barrier.
	maxSeg := 5 * blocksPerRow
	streams := make([]proc.Stream, procs)
	for p := 0; p < procs; p++ {
		lo, hi := p*g/procs, (p+1)*g/procs
		perIter := hi - lo + 1
		streams[p] = newScript(iters*perIter, maxSeg, func(s *script, seg int) {
			it, r := seg/perIter, lo+seg%perIter
			if r == hi {
				s.barrier(it)
				return
			}
			for b := 0; b < blocksPerRow; b++ {
				if r > 0 {
					s.read(rowBlock(r-1, b))
				}
				s.read(rowBlock(r, b))
				if r < g-1 {
					s.read(rowBlock(r+1, b))
				}
				s.busy(14)
				s.write(rowBlock(r, b))
			}
		})
	}
	return streams
}
