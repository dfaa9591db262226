package workload

import (
	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// Water reproduces the reference behavior of SPLASH Water (molecular
// dynamics, 288 molecules / 4 steps in the paper): a compute-heavy O(N^2/2)
// pairwise force phase in which molecule positions are read-only-shared
// (cached after the first touch each step) and partial forces accumulate in
// private storage; the accumulated contributions are then committed to the
// per-molecule force records under per-molecule locks — one lock-protected
// read-modify-write per (processor, molecule), the migratory pattern M
// exploits. An update phase integrates owned molecules, overwriting the
// positions everyone just read (the next step's coherence misses, which CW
// turns into updates). Default here: 224 molecules over 3 steps.
func Water(procs int, scale float64) []proc.Stream {
	mols := scaled(224, scale, procs*2)
	steps := scaled(3, scale, 2)
	if steps > 4 {
		steps = 4
	}

	// Layout (block indices): the position array [0, mols) is dense and
	// sequential (what the prefetcher feeds on); force accumulators sit in
	// the per-molecule record region above it, one record every few blocks
	// as in the original's ~676-byte molecule records — so a sequential
	// prefetch from one molecule's forces never lands on the next
	// molecule's lock-protected accumulator.
	const recBlocks = 3
	posBlock := func(i int) memsys.Addr {
		return dataBase + memsys.Addr(i)*memsys.BlockSize
	}
	forceBlock := func(i int) memsys.Addr {
		return dataBase + memsys.Addr(mols+i*recBlocks)*memsys.BlockSize
	}

	// A force-phase row deals a processor at most ceil((mols-1)/procs)
	// pairs of five ops each; the commit phase takes six ops per molecule
	// touched, and the update phase seven per owned molecule plus the two
	// barriers.
	maxSeg := max(5*ceilDiv(mols-1, procs), 6*mols+7*ceilDiv(mols, procs)+2)
	streams := make([]proc.Stream, procs)
	for p := 0; p < procs; p++ {
		// Each step is one segment per force-phase row i, then one for
		// the commit and update phases. The pair counter carries from row
		// to row; both it and touched restart with each step's row 0.
		pair := 0
		touched := make([]bool, mols)
		streams[p] = newScript(steps*(mols+1), maxSeg, func(s *script, seg int) {
			step, i := seg/(mols+1), seg%(mols+1)
			if i == 0 {
				pair = 0
				clear(touched)
			}
			if i < mols {
				// Force phase: pairs (i, j), i < j, dealt round-robin. The
				// pairwise interaction itself reads both positions (hits
				// after the first touch per step) and computes privately.
				for j := i + 1; j < mols; j++ {
					if pair%procs == p {
						// Distance check reads both positions; only pairs
						// within the cutoff radius (about half, by a
						// deterministic hash) compute the full potential
						// and contribute forces.
						s.readBlock(posBlock(i), 2)
						s.readBlock(posBlock(j), 2)
						if (i*2654435761+j*40503)%100 < 50 {
							s.busy(280)
							touched[i], touched[j] = true, true
						} else {
							s.busy(30)
						}
					}
					pair++
				}
				return
			}
			// Commit accumulated contributions: one lock-protected
			// read-modify-write per touched molecule (the classic
			// migratory critical section). Processors start at different
			// molecules so the sweeps do not convoy on the same locks.
			start := p * mols / procs
			for n := 0; n < mols; n++ {
				i := (start + n) % mols
				if !touched[i] {
					continue
				}
				s.acquire(i)
				s.read(forceBlock(i))
				s.busy(6)
				s.write(forceBlock(i))
				s.release(i)
				s.busy(15)
			}
			s.barrier(2 * step)
			// Update phase: integrate owned molecules; positions written
			// here are the ones everyone reads next step.
			for i := p; i < mols; i += procs {
				s.read(forceBlock(i))
				s.write(forceBlock(i))
				s.readBlock(posBlock(i), 2)
				s.write(posBlock(i))
				s.write(posBlock(i) + 4)
				s.busy(40)
			}
			s.barrier(2*step + 1)
		})
	}
	return streams
}
