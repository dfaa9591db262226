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
	// column emits a read, busy and write per block of column j.
	column := func(s *script, j int) {
		for b := 0; b < blocksPerCol; b++ {
			s.read(colBlock(j, b))
			s.busy(40)
			s.write(colBlock(j, b))
		}
	}

	// Each elimination step k is 3+owned segments: the pivot column's
	// factorization (empty unless p owns column k), the first barrier
	// with the pivot reads, one segment per column p owns (empty unless
	// it lies right of k and within n), and the second barrier. A
	// processor owns at most ceil(n/procs) columns, and the longest
	// segment is one column's read, busy and write per block.
	owned := ceilDiv(n, procs)
	perStep := 3 + owned
	maxSeg := 3 * blocksPerCol
	streams := make([]proc.Stream, procs)
	for p := 0; p < procs; p++ {
		streams[p] = newScript(n*perStep, maxSeg, func(s *script, seg int) {
			k, i := seg/perStep, seg%perStep
			switch {
			case i == 0:
				// Factorize the pivot column.
				if k%procs == p {
					column(s, k)
				}
			case i == 1:
				// Read the pivot column.
				s.barrier(2 * k)
				for b := 0; b < blocksPerCol; b++ {
					s.read(colBlock(k, b))
					s.busy(20)
				}
			case i < perStep-1:
				// Update p's (i-2)-th column if it lies right of k.
				if j := p + (i-2)*procs; j > k && j < n {
					column(s, j)
				}
			default:
				s.barrier(2*k + 1)
			}
		})
	}
	return streams
}
