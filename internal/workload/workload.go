// Package workload provides the five benchmark kernels that drive the
// evaluation. The paper runs MP3D, Water and Cholesky from the SPLASH suite
// plus LU and Ocean; we do not have SPLASH binaries or a SPARC front end, so
// each application is replaced by a deterministic synthetic kernel that
// issues the same kind of shared-memory reference stream — the same sharing
// pattern (migratory, producer-consumer, read-only), synchronization
// structure (locks, barriers, task queues) and locality profile the paper
// attributes to it. The protocol extensions react to exactly these
// properties, so the substitution preserves the evaluation's behavior (see
// DESIGN.md §3).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// Address-space layout: shared data grows from dataBase; lock variables
// live far above it (one lock variable per memory block, paper §4).
const (
	dataBase memsys.Addr = 0
	lockBase memsys.Addr = 1 << 30
)

// lockAddr returns the address of lock variable i.
func lockAddr(i int) memsys.Addr {
	return lockBase + memsys.Addr(i)*memsys.BlockSize
}

// script is one processor's operation stream, generated on demand one
// segment at a time: a segment is one inner step of the kernel's loop (a
// column, a row, a task, one molecule's commit), never a whole outer
// iteration, and fill(s, i) appends segment i to the stream's op buffer.
// Next calls fill only once the processor has drained the buffer, so a
// stream holds one segment instead of its whole history and the kernel's
// state advances only as the simulated processor completes operations.
// Segments are generated in order, so a kernel may keep state (a random
// source, a running counter) from one segment to the next. A segment may
// be empty.
type script struct {
	ops       []proc.Op
	pos       int // next op of ops to return
	seg, segs int // next segment to fill and the segment count
	maxSeg    int // the op buffer's capacity: the kernel's longest segment
	fill      func(s *script, i int)
}

// newScript returns a stream that emits StatsOn and then segments
// 0..segs-1 of fill. maxSeg is the longest segment in ops, which each
// kernel computes from its own loop bounds; the op buffer is allocated at
// that size on the first Next, so building a stream allocates only the
// script, and a segment longer than maxSeg still works by growing it.
func newScript(segs, maxSeg int, fill func(s *script, i int)) *script {
	return &script{segs: segs, maxSeg: maxSeg, fill: fill}
}

// Next implements proc.Stream.
func (s *script) Next() (proc.Op, bool) {
	if s.ops == nil {
		s.ops = make([]proc.Op, 0, s.maxSeg)
		s.statsOn()
	}
	for s.pos == len(s.ops) {
		if s.seg == s.segs {
			return proc.Op{}, false
		}
		s.ops, s.pos = s.ops[:0], 0
		s.fill(s, s.seg)
		s.seg++
	}
	s.pos++
	return s.ops[s.pos-1], true
}

func (s *script) add(op proc.Op)      { s.ops = append(s.ops, op) }
func (s *script) statsOn()            { s.add(proc.Op{Kind: proc.OpStatsOn}) }
func (s *script) read(a memsys.Addr)  { s.add(proc.Op{Kind: proc.OpRead, Addr: a}) }
func (s *script) write(a memsys.Addr) { s.add(proc.Op{Kind: proc.OpWrite, Addr: a}) }
func (s *script) busy(c int64)        { s.add(proc.Op{Kind: proc.OpBusy, Cycles: c}) }
func (s *script) acquire(l int)       { s.add(proc.Op{Kind: proc.OpAcquire, Addr: lockAddr(l)}) }
func (s *script) release(l int)       { s.add(proc.Op{Kind: proc.OpRelease, Addr: lockAddr(l)}) }
func (s *script) barrier(id int)      { s.add(proc.Op{Kind: proc.OpBarrier, Bar: id}) }

// readBlock touches n words of the block at a (spatial locality within a
// block appears as FLC hits after the first touch).
func (s *script) readBlock(a memsys.Addr, words int) {
	for w := 0; w < words; w++ {
		s.read(a + memsys.Addr(4*w))
	}
}

// Generator builds the per-processor streams of one kernel.
type Generator func(procs int, scale float64) []proc.Stream

var registry = map[string]Generator{
	"mp3d":     MP3D,
	"cholesky": Cholesky,
	"water":    Water,
	"lu":       LU,
	"ocean":    Ocean,
}

// Names returns the registered kernel names in the paper's order.
func Names() []string { return []string{"mp3d", "cholesky", "water", "lu", "ocean"} }

// namesSorted returns all registered names alphabetically (for errors).
func namesSorted() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Streams returns the streams for the named kernel. Each generates its
// operations on demand, one inner loop step at a time, as they are read.
// scale multiplies the problem size: 1.0 is the default size (seconds of
// host time per run), smaller values shrink it proportionally for tests
// and quick sweeps.
func Streams(name string, procs int, scale float64) ([]proc.Stream, error) {
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown kernel %q (have %v)", name, namesSorted())
	}
	if procs < 1 {
		return nil, fmt.Errorf("workload: procs = %d", procs)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale = %g", scale)
	}
	return g(procs, scale), nil
}

// ceilDiv returns a/b rounded up, for positive a and b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// scaled returns max(lo, round(v*scale)).
func scaled(v int, scale float64, lo int) int {
	n := int(float64(v)*scale + 0.5)
	if n < lo {
		n = lo
	}
	return n
}

// rng returns a deterministic per-processor random source.
func rng(kernel string, p int) *rand.Rand {
	seed := int64(1)
	for _, c := range kernel {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1000003 + int64(p)*7919))
}
