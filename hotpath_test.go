package ccsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"

	"ccsim"
)

// TestProtocolTraceGolden pins the byte stream of one small traced run:
// every message send and delivery, directory transition, fill and eviction
// with its timestamp and rendering. A change to the trace format or to the
// order of protocol events anywhere in the controllers changes the hash.
func TestProtocolTraceGolden(t *testing.T) {
	const want = "8a8c7392190537301dd7ecd7cff6c66912bfce2a40eb21c8f38730fd33bd2923"
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "mp3d"
	cfg.Extensions = ccsim.Ext{P: true, CW: true}
	cfg.Scale = 0.02
	cfg.Procs = 4
	h := sha256.New()
	cfg.TraceWriter = h
	if _, err := ccsim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("protocol trace sha256 = %s, want %s", got, want)
	}
}

// TestRunAllocationCeiling pins a whole run's heap allocations. The hot
// path (processor continuations, pooled messages, transaction records and
// home jobs, ring buffers, the infinite-SLC slab) allocates nothing once
// warm, and per-block protocol state lives in paged block tables, so what
// remains is per-run set-up, warm-up of the pools and record slices and
// one allocation per table page: 1,707 allocations for this run when the
// ceiling was first set, 1,645 since per-run set-up was sized to the run,
// 1,601 with a pooled transaction record per busy directory entry,
// 1,293 since every pooled record comes from a chunk of 16 rather than
// one heap object each, and 1,230 since no run but a fault's replay
// carries the flight recorder, each cache controller makes its pending
// list once at full size and the pools keep their free lists in their
// chunks. The ceiling is about 1.25x the last; one allocation per
// message, reference or cached block would exceed it several times over.
func TestRunAllocationCeiling(t *testing.T) {
	const ceiling = 1540
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "mp3d"
	cfg.Procs = 16
	cfg.Scale = 0.1
	var runErr error
	n := testing.AllocsPerRun(3, func() {
		if _, err := ccsim.Run(cfg); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%v allocs per run", n)
	if n > ceiling {
		t.Fatalf("%v allocs per run, ceiling %d", n, ceiling)
	}
}

// TestObservedRunAllocationCeiling pins the heap allocations of a run with
// every side channel attached: the live checker, the sharing analyzer,
// telemetry and a protocol trace. The checker's shadow state and the
// analyzer's per-block state live in block tables, one allocation per
// page, and telemetry carves spans and their first marks from slabs. This
// run allocated 3,229 times when the ceiling was first set, 2,643 of them
// without any side channel attached; with Go maps and one heap object per
// block and per span it allocated 17,837 times. It allocated 3,173 times
// with one heap object per hop, MSHR, held request and job, 2,538 since
// those come from chunks of 16, and 2,439 without the flight recorder,
// with pending lists made at full size and free lists kept in the pools'
// chunks; the count varies by a few between runs of one build. The
// ceiling is about 1.25x the last.
func TestObservedRunAllocationCeiling(t *testing.T) {
	const ceiling = 3050
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "mp3d"
	cfg.Extensions = ccsim.Ext{P: true, CW: true}
	cfg.Procs = 16
	cfg.Scale = 0.1
	cfg.TraceWriter = io.Discard
	var runErr error
	n := testing.AllocsPerRun(3, func() {
		c := cfg
		c.Check = ccsim.NewChecker()
		c.Sharing = ccsim.NewSharingAnalytics()
		c.Telemetry = ccsim.NewTelemetry()
		if _, err := ccsim.Run(c); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%v allocs per run", n)
	if n > ceiling {
		t.Fatalf("%v allocs per run, ceiling %d", n, ceiling)
	}
}

// TestRunHeapBytesCeiling pins the heap bytes one run allocates, after a
// warm-up run. Each processor's workload stream is generated one loop
// iteration at a time into one op buffer sized to the kernel's longest
// iteration, so a run holds one segment per processor instead of every
// processor's whole stream; SLC lines and directory entries carry no
// data-verification words in a run that does not verify; the end-of-run
// invariant walk builds no list of cached copies; a directory entry keeps
// 24 bytes of per-block state, its transaction context pooled apart; the
// event wheel's bucket headers are one word each; every pooled record
// comes from a chunk of 16 in one pool per run; and the run carries no
// flight recorder: 926,736 bytes for this run, measured when the ceiling
// was set, against 930,688-930,912 with the recorder's ring, a pending
// list grown by append and a free list apart from the pools' chunks,
// 963,920-965,400 with a pool per controller and one heap object per
// record, 1,120,584 with 136-byte entries and two-word headers, 1,986,664
// with 256-op buffers, a 40-byte line, per-node latency histograms and the
// copy list, 3,245,936 with the words in every line and entry, and
// 11,377,192 when streams were also built whole before the first event.
// The ceiling is about 1.25x the measured value.
func TestRunHeapBytesCeiling(t *testing.T) {
	const ceiling = 1_159_000
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "lu"
	cfg.Procs = 16
	cfg.Scale = 0.5
	checkHeapBytes(t, cfg, ceiling)
}

// TestSweepRunHeapBytesCeiling pins the heap bytes of a run shaped like
// the scale-0.125 sweep's: 16 processors and the paper's 16-KB
// direct-mapped SLC, where set-up sized for the largest run used to
// dominate. It allocated 464,904-465,168 bytes when the ceiling was set,
// 462,656-463,144 since every pooled record comes from a chunk of 16 in
// one pool per run, and 457,296-457,784 without the flight recorder's
// ring, with pending lists made at full size and free lists kept in the
// pools' chunks, against 621,568 with 136-byte directory entries and
// two-word wheel bucket headers, and 1,098,264 with a 1,024-slot event
// arena, 256-op stream buffers, 40-byte lines with LRU ages, a latency
// histogram per node and the invariant walk's copy list. The ceiling is
// about 1.25x the measured value.
func TestSweepRunHeapBytesCeiling(t *testing.T) {
	const ceiling = 572_000
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "mp3d"
	cfg.Procs = 16
	cfg.Scale = 0.125
	cfg.SLCBlocks = 512
	checkHeapBytes(t, cfg, ceiling)
}

// checkHeapBytes fails the test when one run of cfg, after a warm-up run,
// allocates more than ceiling heap bytes.
func checkHeapBytes(t *testing.T, cfg ccsim.Config, ceiling uint64) {
	t.Helper()
	if _, err := ccsim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ccsim.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d heap bytes per run", n)
	if n > ceiling {
		t.Fatalf("%d heap bytes per run, ceiling %d", n, ceiling)
	}
}
