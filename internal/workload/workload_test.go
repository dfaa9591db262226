package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

func drain(t *testing.T, s proc.Stream) []proc.Op {
	t.Helper()
	var ops []proc.Op
	for {
		op, ok := s.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
		if len(ops) > 10_000_000 {
			t.Fatal("stream does not terminate")
		}
	}
}

func TestRegistryNames(t *testing.T) {
	for _, n := range Names() {
		if _, err := Streams(n, 4, 0.05); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := Streams("nope", 4, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := Streams("lu", 0, 1); err == nil {
		t.Fatal("zero procs accepted")
	}
	if _, err := Streams("lu", 4, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
}

// checkWellFormed verifies the invariants every kernel must satisfy:
// exactly one StatsOn per stream (first op), balanced acquire/release per
// lock, identical barrier sequences across processors, and lock addresses
// disjoint from data addresses.
func checkWellFormed(t *testing.T, name string, streams []proc.Stream) {
	t.Helper()
	var barSeqs [][]int
	for p, s := range streams {
		ops := drain(t, s)
		if len(ops) == 0 || ops[0].Kind != proc.OpStatsOn {
			t.Fatalf("%s proc %d: first op is not StatsOn", name, p)
		}
		held := map[memsys.Addr]bool{}
		var bars []int
		for i, op := range ops {
			switch op.Kind {
			case proc.OpStatsOn:
				if i != 0 {
					t.Fatalf("%s proc %d: StatsOn at op %d", name, p, i)
				}
			case proc.OpAcquire:
				if op.Addr < lockBase {
					t.Fatalf("%s proc %d: acquire of data address %d", name, p, op.Addr)
				}
				if held[op.Addr] {
					t.Fatalf("%s proc %d: recursive acquire", name, p)
				}
				held[op.Addr] = true
			case proc.OpRelease:
				if !held[op.Addr] {
					t.Fatalf("%s proc %d: release of unheld lock", name, p)
				}
				delete(held, op.Addr)
			case proc.OpRead, proc.OpWrite:
				if op.Addr >= lockBase {
					t.Fatalf("%s proc %d: data access to lock region", name, p)
				}
			case proc.OpBarrier:
				bars = append(bars, op.Bar)
			case proc.OpBusy:
				if op.Cycles < 0 {
					t.Fatalf("%s proc %d: negative busy", name, p)
				}
			}
		}
		if len(held) != 0 {
			t.Fatalf("%s proc %d: %d locks still held at end", name, p, len(held))
		}
		barSeqs = append(barSeqs, bars)
	}
	for p := 1; p < len(barSeqs); p++ {
		if len(barSeqs[p]) != len(barSeqs[0]) {
			t.Fatalf("%s: proc %d has %d barriers, proc 0 has %d",
				name, p, len(barSeqs[p]), len(barSeqs[0]))
		}
		for i := range barSeqs[p] {
			if barSeqs[p][i] != barSeqs[0][i] {
				t.Fatalf("%s: barrier sequences diverge at %d", name, i)
			}
		}
	}
}

func TestAllKernelsWellFormed(t *testing.T) {
	for _, name := range Names() {
		for _, procs := range []int{4, 16} {
			streams, err := Streams(name, procs, 0.12)
			if err != nil {
				t.Fatal(err)
			}
			if len(streams) != procs {
				t.Fatalf("%s: %d streams for %d procs", name, len(streams), procs)
			}
			checkWellFormed(t, name, streams)
		}
	}
}

func TestKernelsAreDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, _ := Streams(name, 4, 0.1)
		b, _ := Streams(name, 4, 0.1)
		for p := range a {
			oa, ob := drain(t, a[p]), drain(t, b[p])
			if len(oa) != len(ob) {
				t.Fatalf("%s proc %d: nondeterministic length", name, p)
			}
			for i := range oa {
				if oa[i] != ob[i] {
					t.Fatalf("%s proc %d: op %d differs", name, p, i)
				}
			}
		}
	}
}

func TestScaleShrinksWork(t *testing.T) {
	for _, name := range Names() {
		big, _ := Streams(name, 4, 0.5)
		small, _ := Streams(name, 4, 0.1)
		nb := len(drain(t, big[0]))
		ns := len(drain(t, small[0]))
		if ns >= nb {
			t.Fatalf("%s: scale 0.1 (%d ops) not smaller than 0.5 (%d ops)", name, ns, nb)
		}
	}
}

// Sharing-pattern signatures: each kernel must exhibit the property the
// paper attributes to it, at the reference-stream level.

func TestMP3DHasSharedUnsynchronizedRMW(t *testing.T) {
	streams, _ := Streams("mp3d", 4, 0.1)
	// Count blocks written by more than one processor without locks.
	writers := map[memsys.Block]map[int]bool{}
	for p, s := range streams {
		for _, op := range drain(t, s) {
			if op.Kind == proc.OpWrite {
				b := memsys.BlockOf(op.Addr)
				if writers[b] == nil {
					writers[b] = map[int]bool{}
				}
				writers[b][p] = true
			}
		}
	}
	multi := 0
	for _, w := range writers {
		if len(w) > 1 {
			multi++
		}
	}
	if multi < 16 {
		t.Fatalf("only %d multi-writer blocks; MP3D needs heavy cell sharing", multi)
	}
}

func TestWaterUsesPerMoleculeLocks(t *testing.T) {
	streams, _ := Streams("water", 4, 0.2)
	locks := map[memsys.Addr]bool{}
	for _, s := range streams {
		for _, op := range drain(t, s) {
			if op.Kind == proc.OpAcquire {
				locks[op.Addr] = true
			}
		}
	}
	if len(locks) < 8 {
		t.Fatalf("only %d distinct locks; Water needs per-molecule locks", len(locks))
	}
}

func TestLUReadsEachPivotColumnOnceEverywhere(t *testing.T) {
	const procs = 4
	streams, _ := Streams("lu", procs, 0.2)
	// Every processor must read every column's blocks (the pivot
	// broadcast); reads of a block by a non-owner happen a bounded number
	// of times.
	for p, s := range streams {
		reads := map[memsys.Block]int{}
		for _, op := range drain(t, s) {
			if op.Kind == proc.OpRead {
				reads[memsys.BlockOf(op.Addr)]++
			}
		}
		if len(reads) == 0 {
			t.Fatalf("proc %d reads nothing", p)
		}
	}
}

func TestOceanBoundaryRowsShared(t *testing.T) {
	const procs = 4
	streams, _ := Streams("ocean", procs, 0.25)
	readersOf := map[memsys.Block]map[int]bool{}
	writersOf := map[memsys.Block]map[int]bool{}
	for p, s := range streams {
		for _, op := range drain(t, s) {
			b := memsys.BlockOf(op.Addr)
			switch op.Kind {
			case proc.OpRead:
				if readersOf[b] == nil {
					readersOf[b] = map[int]bool{}
				}
				readersOf[b][p] = true
			case proc.OpWrite:
				if writersOf[b] == nil {
					writersOf[b] = map[int]bool{}
				}
				writersOf[b][p] = true
			}
		}
	}
	// Every written block has exactly one writer (row ownership)...
	producerConsumer := 0
	for b, w := range writersOf {
		if len(w) != 1 {
			t.Fatalf("block %d written by %d processors", b, len(w))
		}
		if len(readersOf[b]) > 1 {
			producerConsumer++
		}
	}
	// ...and boundary rows are read by a neighbor too.
	if producerConsumer == 0 {
		t.Fatal("no producer-consumer blocks; Ocean needs shared boundary rows")
	}
}

func TestCholeskyStreamsColumnsOnce(t *testing.T) {
	streams, _ := Streams("cholesky", 4, 0.1)
	// The factor-read of a column (outside locks) must happen on exactly
	// one processor: columns are dealt, not shared, so their misses are
	// cold.
	inLock := map[int]bool{}
	factorReaders := map[memsys.Block]map[int]bool{}
	for p, s := range streams {
		for _, op := range drain(t, s) {
			switch op.Kind {
			case proc.OpAcquire:
				inLock[p] = true
			case proc.OpRelease:
				inLock[p] = false
			case proc.OpRead:
				if !inLock[p] {
					b := memsys.BlockOf(op.Addr)
					if factorReaders[b] == nil {
						factorReaders[b] = map[int]bool{}
					}
					factorReaders[b][p] = true
				}
			}
		}
	}
	multi := 0
	for _, rd := range factorReaders {
		if len(rd) > 1 {
			multi++
		}
	}
	if multi > len(factorReaders)/4 {
		t.Fatalf("%d of %d factor-read blocks read by several procs", multi, len(factorReaders))
	}
}

// TestScriptSegmentsReplayInOrder generates streams whose segments are
// empty, larger than the op buffer's starting capacity (the stream's
// longest-segment hint), or absent, and replays each in order: StatsOn,
// then every segment's ops, then the end.
func TestScriptSegmentsReplayInOrder(t *testing.T) {
	const hint = 4
	for _, c := range []struct {
		name  string
		sizes []int // ops in each segment
	}{
		{"no segments", nil},
		{"empty segments", []int{0, 3, 0, 0, 2, 0}},
		{"segment past starting capacity", []int{5, 3*hint + 7, 1, 0, hint}},
	} {
		t.Run(c.name, func(t *testing.T) {
			next := 0 // ops generated so far, in order
			st := newScript(len(c.sizes), hint, func(s *script, i int) {
				for n := 0; n < c.sizes[i]; n++ {
					s.busy(int64(next))
					next++
				}
			})
			if op, ok := st.Next(); !ok || op.Kind != proc.OpStatsOn {
				t.Fatalf("first op = %+v, %v; want StatsOn", op, ok)
			}
			total := 0
			for _, n := range c.sizes {
				total += n
			}
			for i := 0; i < total; i++ {
				op, ok := st.Next()
				if !ok || op.Kind != proc.OpBusy || op.Cycles != int64(i) {
					t.Fatalf("op %d = %+v, %v", i, op, ok)
				}
			}
			for range 2 {
				if op, ok := st.Next(); ok {
					t.Fatalf("stream did not end: %+v", op)
				}
			}
		})
	}
}

// TestKernelStreamHashes pins every kernel's whole operation stream, all
// processors in order, by sha256. A generator edit that reorders,
// drops or adds an op names its kernel here instead of surfacing only as
// a metrics diff.
func TestKernelStreamHashes(t *testing.T) {
	for _, c := range []struct {
		kernel string
		procs  int
		scale  float64
		want   string
	}{
		{"mp3d", 16, 0.25, "6200cc2f73d6c58934d0367546fccc6b0c47af7db1c71a35e8d2b455171dce5e"},
		{"cholesky", 16, 0.25, "4eb003bd5448e00fb50dcde1b54f650eee6fea91d6eabf30505172fb92b861bc"},
		{"water", 16, 0.25, "38862cbf81a64bbb3a677ae760a25330bf41ef1d1556a8eb86c45334da6dfe1f"},
		{"lu", 16, 0.25, "ad01ba9267d77de0cc46eceaaa7fc6e8e0e8492c207ef5681e4f348e298e3a0d"},
		{"ocean", 16, 0.25, "72010d5299f066b2e6960f4002f159512a29e0c798ffad299218c80b1127fbd9"},
		{"mp3d", 4, 0.13, "6e3febd33dbf84d17fc2b59b55bd0d395ee4fd8509644b2776ecb88db37049c0"},
		{"cholesky", 4, 0.13, "580707c3266a16eb8e63bdc3813cd70c3b644f0bc82b11d20ec83a8de5e87e83"},
		{"water", 4, 0.13, "371d6e86d303379389476c0fd30b60fc1ca9bffbfcbe87e5f86a89b188f92ba7"},
		{"lu", 4, 0.13, "c4d09674783580eb9f039c06a4d74761f5fad0ff1a0e6466f03e33231d511a87"},
		{"ocean", 4, 0.13, "1324da72224c7d43fd941e2a471fdd86770bb4304894457b236d73f111dd9fd9"},
	} {
		streams, err := Streams(c.kernel, c.procs, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		// Each op is four little-endian uint64s (kind, addr, cycles,
		// bar); each stream ends with its op count.
		h := sha256.New()
		var rec [32]byte
		for _, s := range streams {
			n := uint64(0)
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				binary.LittleEndian.PutUint64(rec[0:], uint64(op.Kind))
				binary.LittleEndian.PutUint64(rec[8:], uint64(op.Addr))
				binary.LittleEndian.PutUint64(rec[16:], uint64(op.Cycles))
				binary.LittleEndian.PutUint64(rec[24:], uint64(op.Bar))
				h.Write(rec[:])
				n++
			}
			binary.LittleEndian.PutUint64(rec[:8], n)
			h.Write(rec[:8])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s at %d procs, scale %g: stream sha256 = %s, want %s",
				c.kernel, c.procs, c.scale, got, c.want)
		}
	}
}

// TestKernelOpBuffersNeverGrow drains every kernel at scales from 0.02 to
// 1.0 and 1 to 32 processors, and checks that each stream's op buffer,
// allocated at the kernel's longest-segment bound, never grows, and that
// the bound is no more than 1.25 times the longest segment seen plus one
// op: a bound that is too small shows as growth, one that is too loose as
// wasted buffer.
func TestKernelOpBuffersNeverGrow(t *testing.T) {
	for _, name := range Names() {
		for _, scale := range []float64{0.02, 0.125, 0.5, 1.0} {
			for _, procs := range []int{1, 4, 8, 16, 32} {
				streams, err := Streams(name, procs, scale)
				if err != nil {
					t.Fatal(err)
				}
				longest, bound := 0, 0
				for p, st := range streams {
					s := st.(*script)
					bound = s.maxSeg
					fill := s.fill
					s.fill = func(s *script, i int) {
						fill(s, i)
						longest = max(longest, len(s.ops))
					}
					for {
						if _, ok := s.Next(); !ok {
							break
						}
						if cap(s.ops) != bound {
							t.Fatalf("%s at %d procs, scale %g: proc %d's op buffer grew from %d to %d ops",
								name, procs, scale, p, bound, cap(s.ops))
						}
					}
				}
				if float64(bound) > 1.25*float64(longest)+1 {
					t.Errorf("%s at %d procs, scale %g: bound %d ops, longest segment %d",
						name, procs, scale, bound, longest)
				}
			}
		}
	}
}

// TestKernelOpBuffersHoldOneStep drains every kernel at 16 processors and
// checks that no stream's op buffer ever holds more than 80 ops: each
// segment is one inner step of its kernel's loop (an lu column, an ocean
// row, a water force row, commit or update, a cholesky task, an mp3d
// particle), not a whole outer iteration. At scale 1.0 the buffers are lu
// 72, ocean 80, water 70, cholesky 61 and mp3d 13 ops; with a segment per
// outer iteration lu, ocean and water took 914, 641 and 1,444.
func TestKernelOpBuffersHoldOneStep(t *testing.T) {
	const limit = 80
	for _, name := range Names() {
		for _, scale := range []float64{0.125, 0.5, 1.0} {
			streams, err := Streams(name, 16, scale)
			if err != nil {
				t.Fatal(err)
			}
			for p, st := range streams {
				s := st.(*script)
				for {
					_, ok := s.Next()
					if cap(s.ops) > limit {
						t.Fatalf("%s at scale %g: proc %d's op buffer holds %d ops, limit %d",
							name, scale, p, cap(s.ops), limit)
					}
					if !ok {
						break
					}
				}
			}
		}
	}
}
