package ccsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ccsim"
	"ccsim/internal/memsys"
)

// protoVariants enumerates every extension combination from the paper.
var protoVariants = []struct {
	name string
	ext  ccsim.Ext
}{
	{"BASIC", ccsim.Ext{}},
	{"P", ccsim.Ext{P: true}},
	{"M", ccsim.Ext{M: true}},
	{"CW", ccsim.Ext{CW: true}},
	{"P+CW", ccsim.Ext{P: true, CW: true}},
	{"P+M", ccsim.Ext{P: true, M: true}},
	{"CW+M", ccsim.Ext{M: true, CW: true}},
	{"P+CW+M", ccsim.Ext{P: true, M: true, CW: true}},
}

// machineConfig is the paper's baseline machine (BASIC, RC, uniform
// network, infinite SLC) with procs processors.
func machineConfig(procs int) ccsim.Config {
	cfg := ccsim.DefaultConfig()
	cfg.Procs = procs
	return cfg
}

// mustRun runs streams on cfg and fails the test on any error.
func mustRun(t *testing.T, cfg ccsim.Config, streams []ccsim.Stream) *ccsim.Result {
	t.Helper()
	r, err := ccsim.RunStreams(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func trivialStreams(n int) []ccsim.Stream {
	out := make([]ccsim.Stream, n)
	for i := range out {
		out[i] = ccsim.Ops(
			ccsim.Op{Kind: ccsim.StatsOn},
			ccsim.Op{Kind: ccsim.Busy, Cycles: 10},
			ccsim.Op{Kind: ccsim.Read, Addr: uint64(i * memsys.PageSize)},
			ccsim.Op{Kind: ccsim.Barrier, Bar: 0},
		)
	}
	return out
}

func TestMachineRunsTrivialWorkload(t *testing.T) {
	r := mustRun(t, machineConfig(4), trivialStreams(4))
	if r.ExecTime <= 0 {
		t.Fatalf("ExecTime = %d", r.ExecTime)
	}
	if r.Reads != 4 {
		t.Fatalf("Reads = %d, want 4", r.Reads)
	}
	if r.ColdMisses != 4 || r.CoherenceMisses != 0 || r.ReplacementMisses != 0 {
		t.Fatalf("misses = %d cold, %d coherence, %d replacement; want 4 cold",
			r.ColdMisses, r.CoherenceMisses, r.ReplacementMisses)
	}
}

func TestMachineStreamCountMismatch(t *testing.T) {
	if _, err := ccsim.RunStreams(machineConfig(4), trivialStreams(3)); err == nil {
		t.Fatal("no error for stream/node mismatch")
	}
}

func TestMachineRequiresStatsOn(t *testing.T) {
	streams := []ccsim.Stream{ccsim.Ops(ccsim.Op{Kind: ccsim.Busy, Cycles: 5})}
	if _, err := ccsim.RunStreams(machineConfig(1), streams); err == nil {
		t.Fatal("run without StatsOn did not error")
	}
}

// randomStream generates a reproducible random mix of reads, writes,
// critical sections and busy time over a small shared region, then the
// same run of barriers on every processor — a protocol fuzzer.
func randomStream(id, nops int, seed int64) ccsim.Stream {
	rng := rand.New(rand.NewSource(seed + int64(id)))
	ops := []ccsim.Op{{Kind: ccsim.StatsOn}}
	const sharedBlocks = 24
	addr := func() uint64 {
		// Spread over pages so several homes participate.
		b := rng.Intn(sharedBlocks)
		page := b % 4
		return uint64(page*memsys.PageSize + (b/4)*memsys.BlockSize + 4*rng.Intn(8))
	}
	lockAddr := func(l int) uint64 {
		return uint64(100*memsys.PageSize + l*memsys.BlockSize)
	}
	for i := 0; i < nops; i++ {
		switch r := rng.Intn(100); {
		case r < 40:
			ops = append(ops, ccsim.Op{Kind: ccsim.Read, Addr: addr()})
		case r < 70:
			ops = append(ops, ccsim.Op{Kind: ccsim.Write, Addr: addr()})
		case r < 85:
			ops = append(ops, ccsim.Op{Kind: ccsim.Busy, Cycles: int64(rng.Intn(50))})
		case r < 95:
			l := rng.Intn(3)
			ops = append(ops,
				ccsim.Op{Kind: ccsim.Acquire, Addr: lockAddr(l)},
				ccsim.Op{Kind: ccsim.Read, Addr: addr()},
				ccsim.Op{Kind: ccsim.Write, Addr: addr()},
				ccsim.Op{Kind: ccsim.Release, Addr: lockAddr(l)},
			)
		}
	}
	// Every processor must arrive at the same barriers, so each stream
	// ends with the same count.
	for bar := 0; bar < nops/10+1; bar++ {
		ops = append(ops, ccsim.Op{Kind: ccsim.Barrier, Bar: bar})
	}
	return ccsim.Ops(ops...)
}

func randomStreams(nprocs, nops int, seed int64) []ccsim.Stream {
	out := make([]ccsim.Stream, nprocs)
	for i := range out {
		out[i] = randomStream(i, nops, seed)
	}
	return out
}

func TestRandomWorkloadAllProtocols(t *testing.T) {
	for _, v := range protoVariants {
		for _, sc := range []bool{false, true} {
			if sc && v.ext.CW {
				continue // CW is not feasible under SC
			}
			name := v.name
			if sc {
				name += "-SC"
			}
			t.Run(name, func(t *testing.T) {
				cfg := machineConfig(8)
				cfg.Extensions = v.ext
				cfg.VerifyData = true
				cfg.SC = sc // one FLWB entry under SC, 16 SLWB entries
				r := mustRun(t, cfg, randomStreams(8, 400, 12345))
				if r.ExecTime <= 0 {
					t.Fatal("no execution time")
				}
			})
		}
	}
}

func TestRandomWorkloadFiniteCachesAndSmallBuffers(t *testing.T) {
	for _, v := range protoVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := machineConfig(8)
			cfg.Extensions = v.ext
			cfg.VerifyData = true
			cfg.SLCBlocks = 8 // brutal: constant replacement
			cfg.FLWBEntries = 2
			cfg.SLWBEntries = 2
			mustRun(t, cfg, randomStreams(8, 400, 999))
		})
	}
}

func TestRandomWorkloadOnMesh(t *testing.T) {
	for _, bits := range []int{64, 32, 16} {
		t.Run(fmt.Sprintf("%dbit", bits), func(t *testing.T) {
			cfg := machineConfig(16)
			cfg.Extensions = ccsim.Ext{P: true, CW: true}
			cfg.Net = ccsim.Mesh
			cfg.LinkBits = bits
			mustRun(t, cfg, randomStreams(16, 200, 777))
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *ccsim.Result {
		cfg := machineConfig(8)
		cfg.Extensions = ccsim.Ext{P: true, M: true}
		return mustRun(t, cfg, randomStreams(8, 300, 42))
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime {
		t.Fatalf("nondeterministic execution time: %d vs %d", a.ExecTime, b.ExecTime)
	}
	if a.TrafficBytes != b.TrafficBytes {
		t.Fatalf("nondeterministic traffic: %d vs %d", a.TrafficBytes, b.TrafficBytes)
	}
	am := [3]uint64{a.ColdMisses, a.CoherenceMisses, a.ReplacementMisses}
	bm := [3]uint64{b.ColdMisses, b.CoherenceMisses, b.ReplacementMisses}
	if am != bm {
		t.Fatalf("nondeterministic misses: %v vs %v", am, bm)
	}
}

func TestManySeedsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for seed := int64(0); seed < 12; seed++ {
		for _, v := range protoVariants {
			cfg := machineConfig(8)
			cfg.Extensions = v.ext
			cfg.VerifyData = true
			cfg.SLCBlocks = 16
			if _, err := ccsim.RunStreams(cfg, randomStreams(8, 300, seed*31+7)); err != nil {
				t.Fatalf("seed %d proto %s: %v", seed, v.name, err)
			}
		}
	}
}

// TestBigFuzz is an extended randomized sweep: every extension set under
// RC and SC, a small SLC and tiny write buffers.
func TestBigFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz")
	}
	for seed := int64(100); seed < 150; seed++ {
		for _, v := range protoVariants {
			for _, sc := range []bool{false, true} {
				if sc && v.ext.CW {
					continue
				}
				cfg := machineConfig(8)
				cfg.Extensions = v.ext
				cfg.SC = sc
				cfg.VerifyData = true
				cfg.SLCBlocks = 16
				cfg.FLWBEntries, cfg.SLWBEntries = 2, 3
				if _, err := ccsim.RunStreams(cfg, randomStreams(8, 350, seed)); err != nil {
					t.Fatalf("seed %d proto %s sc=%v: %v", seed, v.name, sc, err)
				}
			}
		}
	}
}

// TestFinalSoak is a last heavy randomized pass: long streams, all
// protocol combinations, adversarial cache/buffer geometry, data-value
// verification on.
func TestFinalSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := int64(1000); seed < 1040; seed++ {
		v := protoVariants[seed%8]
		cfg := machineConfig(8)
		cfg.Extensions = v.ext
		cfg.SC = seed%4 == 0 && !v.ext.CW
		cfg.VerifyData = true
		cfg.SLCBlocks = []int{0, 8, 32}[seed%3]
		cfg.SLCWays = 1 + int(seed%2)
		if cfg.SLCBlocks%cfg.SLCWays != 0 {
			cfg.SLCWays = 1
		}
		cfg.DirPointers = int(seed % 3)
		cfg.FLWBEntries = 1 + int(seed%3)
		cfg.SLWBEntries = 1 + int(seed%4)
		if _, err := ccsim.RunStreams(cfg, randomStreams(8, 2500, seed)); err != nil {
			t.Fatalf("seed %d proto %s: %v", seed, v.name, err)
		}
	}
}

// runBoth runs the streams mk builds once with the extension off and once
// with it on, and returns both results.
func runBoth(t *testing.T, set func(*ccsim.Config), mk func(n int) []ccsim.Stream) (off, on *ccsim.Result) {
	t.Helper()
	cfg := machineConfig(4)
	off = mustRun(t, cfg, mk(4))
	set(&cfg)
	on = mustRun(t, cfg, mk(4))
	return off, on
}

func TestCriticalSectionCounterIsMigratory(t *testing.T) {
	// The classic x:=x+1 critical-section pattern the paper attributes
	// migratory sharing to: under M the block must be detected migratory
	// and ownership requests must (almost) vanish.
	const counter = 0
	const lock = 50 * memsys.PageSize
	basic, m := runBoth(t, func(c *ccsim.Config) { c.Extensions.M = true }, func(n int) []ccsim.Stream {
		out := make([]ccsim.Stream, n)
		for i := range out {
			ops := []ccsim.Op{{Kind: ccsim.StatsOn}}
			for k := 0; k < 20; k++ {
				ops = append(ops,
					ccsim.Op{Kind: ccsim.Acquire, Addr: lock},
					ccsim.Op{Kind: ccsim.Read, Addr: counter},
					ccsim.Op{Kind: ccsim.Write, Addr: counter},
					ccsim.Op{Kind: ccsim.Release, Addr: lock},
					ccsim.Op{Kind: ccsim.Busy, Cycles: 20},
				)
			}
			out[i] = ccsim.Ops(ops...)
		}
		return out
	})
	if m.MigDetections == 0 {
		t.Fatal("counter block never detected migratory")
	}
	if m.OwnershipRequests >= basic.OwnershipRequests/2 {
		t.Fatalf("M did not cut ownership requests: %d (M) vs %d (BASIC)",
			m.OwnershipRequests, basic.OwnershipRequests)
	}
	if m.ExclSupplies == 0 {
		t.Fatal("no exclusive supplies under M")
	}
}

func TestProducerConsumerCWCutsCoherenceMisses(t *testing.T) {
	// Producer-consumer across barriers: one writer updates a block each
	// phase, readers consume it. CW must turn the readers' coherence
	// misses into updates.
	const blockA = 0
	basic, cw := runBoth(t, func(c *ccsim.Config) { c.Extensions.CW = true }, func(n int) []ccsim.Stream {
		out := make([]ccsim.Stream, n)
		for i := range out {
			ops := []ccsim.Op{{Kind: ccsim.StatsOn}}
			for phase := 0; phase < 16; phase++ {
				if i == 0 {
					ops = append(ops, ccsim.Op{Kind: ccsim.Write, Addr: blockA})
				} else {
					ops = append(ops, ccsim.Op{Kind: ccsim.Read, Addr: blockA})
				}
				ops = append(ops, ccsim.Op{Kind: ccsim.Barrier, Bar: phase})
			}
			out[i] = ccsim.Ops(ops...)
		}
		return out
	})
	if cw.CoherenceMisses >= basic.CoherenceMisses {
		t.Fatalf("CW did not cut coherence misses: %d vs %d",
			cw.CoherenceMisses, basic.CoherenceMisses)
	}
	if cw.UpdateRequests == 0 {
		t.Fatal("no updates issued under CW")
	}
}

func TestSequentialStreamPrefetchingCutsColdMisses(t *testing.T) {
	// A processor streaming through memory: P must eliminate most cold
	// misses.
	basic, p := runBoth(t, func(c *ccsim.Config) { c.Extensions.P = true }, func(n int) []ccsim.Stream {
		out := make([]ccsim.Stream, n)
		for i := range out {
			ops := []ccsim.Op{{Kind: ccsim.StatsOn}}
			base := uint64(i * 16 * memsys.PageSize)
			for k := 0; k < 256; k++ {
				ops = append(ops,
					ccsim.Op{Kind: ccsim.Read, Addr: base + uint64(k*memsys.BlockSize)},
					ccsim.Op{Kind: ccsim.Busy, Cycles: 10},
				)
			}
			out[i] = ccsim.Ops(ops...)
		}
		return out
	})
	if p.ColdMisses*3 > basic.ColdMisses {
		t.Fatalf("P did not cut cold misses enough: %d vs %d", p.ColdMisses, basic.ColdMisses)
	}
	if p.ExecTime >= basic.ExecTime {
		t.Fatalf("P did not speed up streaming: %d vs %d", p.ExecTime, basic.ExecTime)
	}
	if p.PrefetchesIssued == 0 || p.PrefetchesUseful == 0 {
		t.Fatalf("prefetch stats empty: %d issued, %d useful", p.PrefetchesIssued, p.PrefetchesUseful)
	}
}
