package workload

import (
	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// LU reproduces the reference behavior of the dense LU kernel (200x200 in
// the paper): columns are dealt round-robin to processors; at elimination
// step k the owner factorizes column k, everyone then reads the pivot
// column (a one-shot producer-consumer broadcast — every one of those reads
// is a cold miss, which is why LU's cold rate stays high all run) and
// updates its own columns to the right (which stay dirty in their owner's
// cache, so almost no coherence misses arise — paper Table 2 gives LU a
// 0.019 % coherence component). The pivot column's consecutive blocks are
// what adaptive prefetching exploits (cold rate 1.40 % -> 0.22 % in the
// paper). Default here: a 192x192-word matrix.
func LU(procs int, scale float64) []proc.Stream {
	n := scaled(192, scale, 16)
	blocksPerCol := (n + memsys.WordsPerBlock - 1) / memsys.WordsPerBlock

	colBlock := func(j, b int) memsys.Addr {
		return dataBase + memsys.Addr(j*blocksPerCol+b)*memsys.BlockSize
	}

	// One segment per elimination step k: two barriers, a read and a busy
	// per pivot block, and a read, busy and write per block of each column
	// of [k, n) the processor owns (the pivot column's factorization
	// included), of which it owns at most ceil(n/procs).
	maxSeg := 2 + blocksPerCol*(2+3*ceilDiv(n, procs))
	streams := make([]proc.Stream, procs)
	for p := 0; p < procs; p++ {
		streams[p] = newScript(n, maxSeg, func(s *script, k int) {
			if k%procs == p {
				// Factorize the pivot column.
				for b := 0; b < blocksPerCol; b++ {
					s.read(colBlock(k, b))
					s.busy(40)
					s.write(colBlock(k, b))
				}
			}
			s.barrier(2 * k)
			// Read the pivot column and update owned columns right of k.
			for b := 0; b < blocksPerCol; b++ {
				s.read(colBlock(k, b))
				s.busy(20)
			}
			for j := k + 1; j < n; j++ {
				if j%procs != p {
					continue
				}
				for b := 0; b < blocksPerCol; b++ {
					s.read(colBlock(j, b))
					s.busy(40)
					s.write(colBlock(j, b))
				}
			}
			s.barrier(2*k + 1)
		})
	}
	return streams
}
