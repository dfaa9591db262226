package workload

import (
	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// MP3D reproduces the reference behavior of SPLASH MP3D (rarefied
// hypersonic flow, particle-in-cell): each processor owns a static share of
// particle records and, per time step, moves every particle and scatters an
// unsynchronized read-modify-write into a shared space-cell array. The cell
// updates give MP3D its signature behavior in the paper: migratory sharing
// without locks (the "x := x+1 on shared variables" pattern of §3.2), the
// highest coherence miss rate of the suite, and the highest bandwidth
// demand. Particles move smoothly, so a processor's particles cluster in a
// region of cells with some overlap into neighbors' regions — the overlap
// is what migrates. Particle records are sequential per processor, which
// adaptive prefetching exploits.
//
// Paper input: 10 K particles, 10 steps. Default here: 4 K particles, 1 K
// cells, 5 steps (pattern-preserving; see DESIGN.md §3).
func MP3D(procs int, scale float64) []proc.Stream {
	particles := scaled(4096, scale, procs*8)
	steps := scaled(5, scale, 2)
	if steps > 5 {
		steps = 5
	}
	cells := particles / 4
	// A third of cell accesses land outside the processor's own region,
	// in line with MP3D's cross-cell collision rate.
	const overlapPct = 33

	// Layout (block indices): particle i uses blocks [2i, 2i+1]
	// (position + velocity); the cell array follows.
	cellBase := 2 * particles
	blockAddr := func(idx int) memsys.Addr {
		return dataBase + memsys.Addr(idx)*memsys.BlockSize
	}

	streams := make([]proc.Stream, procs)
	for p := 0; p < procs; p++ {
		r := rng("mp3d", p)
		lo, hi := p*particles/procs, (p+1)*particles/procs
		clo, chi := p*cells/procs, (p+1)*cells/procs
		// Each step is one segment per owned particle, then one for the
		// step's barrier. A particle's segment is 13 ops: two 3-word block
		// reads, then busy, write, write, read, busy, write, busy.
		per := hi - lo + 1
		streams[p] = newScript(steps*per, 13, func(s *script, seg int) {
			step, k := seg/per, seg%per
			if k == hi-lo {
				s.barrier(step)
				return
			}
			i := lo + k
			pos, vel := blockAddr(2*i), blockAddr(2*i+1)
			// Move the particle: read position and velocity, advance,
			// write position back.
			s.readBlock(pos, 3)
			s.readBlock(vel, 3)
			s.busy(12)
			s.write(pos)
			s.write(pos + 4)
			// Collision bookkeeping in the particle's cell: an
			// unsynchronized read-modify-write on a shared block.
			var cell int
			if r.Intn(100) < overlapPct {
				cell = r.Intn(cells)
			} else {
				cell = clo + r.Intn(chi-clo)
			}
			ca := blockAddr(cellBase + cell)
			s.read(ca)
			s.busy(4)
			s.write(ca)
			s.busy(8)
		})
	}
	return streams
}
