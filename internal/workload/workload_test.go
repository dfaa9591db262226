package workload

import (
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

// TestScriptChunksKeepOrder builds a stream across many chunk boundaries,
// past the cap on chunk growth, and replays it in order.
func TestScriptChunksKeepOrder(t *testing.T) {
	const n = 3*maxChunk + 17
	s := &script{}
	for i := 0; i < n; i++ {
		s.busy(int64(i))
	}
	for i, ch := range s.chunks {
		if want := min(firstChunk<<i, maxChunk); cap(ch) != want {
			t.Fatalf("chunk %d holds %d ops, want %d", i, cap(ch), want)
		}
	}
	st := s.stream()
	for i := 0; i < n; i++ {
		op, ok := st.Next()
		if !ok || op.Cycles != int64(i) {
			t.Fatalf("op %d = %+v, %v", i, op, ok)
		}
	}
	if _, ok := st.Next(); ok {
		t.Fatal("stream did not end")
	}
}
