package ccsim_test

import (
	"crypto/sha256"
	"encoding/hex"
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
// warm, so what remains is per-run set-up, per-block protocol state and
// the end-of-run invariant walk: 4,053 allocations for this run, measured
// when the ceiling was set. The ceiling is about 1.2x that; one allocation
// per message or reference would exceed it several times over.
func TestRunAllocationCeiling(t *testing.T) {
	const ceiling = 4900
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
