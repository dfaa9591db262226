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

	// Each step is mols segments of force-phase rows, mols of commits (one
	// per molecule, empty unless the processor touched it), the first
	// barrier, one segment per owned molecule's update and the second
	// barrier. A force-phase row deals a processor at most
	// ceil((mols-1)/procs) pairs of five ops each; a commit takes six ops
	// and an update seven.
	maxSeg := max(5*ceilDiv(mols-1, procs), 7)
	streams := make([]proc.Stream, procs)
	for p := 0; p < procs; p++ {
		// The pair counter carries from row to row; both it and touched
		// restart with each step's row 0.
		pair := 0
		touched := make([]bool, mols)
		start := p * mols / procs
		owned := ceilDiv(mols-p, procs)
		perStep := 2*mols + 2 + owned
		streams[p] = newScript(steps*perStep, maxSeg, func(s *script, seg int) {
			step, i := seg/perStep, seg%perStep
			switch {
			case i < mols:
				if i == 0 {
					pair = 0
					clear(touched)
				}
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
			case i < 2*mols:
				// Commit accumulated contributions: one lock-protected
				// read-modify-write per touched molecule (the classic
				// migratory critical section). Processors start at
				// different molecules so the sweeps do not convoy on the
				// same locks.
				m := (start + i - mols) % mols
				if !touched[m] {
					return
				}
				s.acquire(m)
				s.read(forceBlock(m))
				s.busy(6)
				s.write(forceBlock(m))
				s.release(m)
				s.busy(15)
			case i == 2*mols:
				s.barrier(2 * step)
			case i < perStep-1:
				// Update phase: integrate owned molecules; positions
				// written here are the ones everyone reads next step.
				m := p + (i-2*mols-1)*procs
				s.read(forceBlock(m))
				s.write(forceBlock(m))
				s.readBlock(posBlock(m), 2)
				s.write(posBlock(m))
				s.write(posBlock(m) + 4)
				s.busy(40)
			default:
				s.barrier(2*step + 1)
			}
		})
	}
	return streams
}
