package workload

import (
	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// Cholesky reproduces the reference behavior of SPLASH Cholesky (sparse
// factorization, bcsstk14 in the paper): a lock-protected task queue hands
// out columns; each task streams through fresh column data once — which is
// why the cold miss rate stays high for the whole execution, the paper's
// point about direct solution methods — and then applies lock-protected
// read-modify-write updates to a few destination columns, the migratory
// pattern M exploits. Column data is laid out in consecutive blocks, the
// spatial locality adaptive prefetching feeds on (paper: P cuts Cholesky's
// cold rate 0.90 % -> 0.19 %).
func Cholesky(procs int, scale float64) []proc.Stream {
	cols := scaled(1024, scale, procs*4)
	const blocksPerCol = 4
	const updatesPerTask = 3
	const destLocks = 31

	// Layout (block indices): column j occupies blocks
	// [j*blocksPerCol, ...); the task-queue head counter follows.
	qhead := dataBase + memsys.Addr(cols*blocksPerCol)*memsys.BlockSize
	colBlock := func(j, b int) memsys.Addr {
		return dataBase + memsys.Addr(j*blocksPerCol+b)*memsys.BlockSize
	}

	// The longest task takes the queue lock (4 ops), reads its column (two
	// reads and a busy per block) and makes every update (an acquire, a
	// read, busy and write per block, a release and a busy).
	maxSeg := 4 + 3*blocksPerCol + updatesPerTask*(3*blocksPerCol+3)
	streams := make([]proc.Stream, procs)
	for p := 0; p < procs; p++ {
		r := rng("cholesky", p)
		// Tasks are dequeued in batches of four columns; the generator
		// assigns them round-robin (the queue traffic — a migratory
		// counter under a lock — is modeled faithfully either way). One
		// segment per task t, column j = p + t*procs, then one for the
		// closing barrier.
		tasks := (cols - p + procs - 1) / procs
		streams[p] = newScript(tasks+1, maxSeg, func(s *script, t int) {
			if t == tasks {
				s.barrier(0)
				return
			}
			j := p + t*procs
			if t%4 == 0 {
				s.acquire(0)
				s.read(qhead)
				s.write(qhead)
				s.release(0)
			}
			// Factor column j: stream through its blocks once.
			for b := 0; b < blocksPerCol; b++ {
				s.readBlock(colBlock(j, b), 2)
				s.busy(55)
			}
			// Update destination columns beyond j (read-modify-write under
			// per-column locks: migratory sharing).
			for u := 0; u < updatesPerTask; u++ {
				if j+1 >= cols {
					break
				}
				k := j + 1 + r.Intn(cols-j-1)
				s.acquire(1 + k%destLocks)
				for b := 0; b < blocksPerCol; b++ {
					s.read(colBlock(k, b))
					s.busy(12)
					s.write(colBlock(k, b))
				}
				s.release(1 + k%destLocks)
				s.busy(40)
			}
		})
	}
	return streams
}
