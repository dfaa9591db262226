package ccsim_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ccsim"
	"ccsim/internal/proc"
)

func tinyCfg(wl string) ccsim.Config {
	cfg := ccsim.DefaultConfig()
	cfg.Workload = wl
	cfg.Scale = 0.08
	cfg.Procs = 8
	return cfg
}

func TestRunAllWorkloads(t *testing.T) {
	for _, wl := range ccsim.Workloads() {
		r, err := ccsim.Run(tinyCfg(wl))
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if r.ExecTime <= 0 || r.Reads == 0 {
			t.Fatalf("%s: empty result %+v", wl, r)
		}
		if r.Workload != wl || r.Protocol != "BASIC" {
			t.Fatalf("%s: labels wrong: %s/%s", wl, r.Workload, r.Protocol)
		}
	}
}

func TestRunRequiresWorkload(t *testing.T) {
	cfg := ccsim.DefaultConfig()
	if _, err := ccsim.Run(cfg); err == nil {
		t.Fatal("Run without workload succeeded")
	}
	cfg.Workload = "no-such-kernel"
	if _, err := ccsim.Run(cfg); err == nil {
		t.Fatal("Run with unknown workload succeeded")
	}
}

func TestCWUnderSCIsRejected(t *testing.T) {
	cfg := tinyCfg("ocean")
	cfg.SC = true
	cfg.Extensions = ccsim.Ext{CW: true}
	_, err := ccsim.Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "sequential consistency") {
		t.Fatalf("CW under SC not rejected: %v", err)
	}
}

func TestProtocolNames(t *testing.T) {
	cases := []struct {
		ext  ccsim.Ext
		sc   bool
		want string
	}{
		{ccsim.Ext{}, false, "BASIC"},
		{ccsim.Ext{P: true}, false, "P"},
		{ccsim.Ext{CW: true}, false, "CW"},
		{ccsim.Ext{M: true}, true, "M-SC"},
		{ccsim.Ext{P: true, CW: true}, false, "P+CW"},
		{ccsim.Ext{P: true, M: true}, false, "P+M"},
		{ccsim.Ext{CW: true, M: true}, false, "CW+M"},
		{ccsim.Ext{P: true, CW: true, M: true}, false, "P+CW+M"},
	}
	for _, c := range cases {
		cfg := ccsim.DefaultConfig()
		cfg.Extensions = c.ext
		cfg.SC = c.sc
		if got := cfg.ProtocolName(); got != c.want {
			t.Errorf("ProtocolName(%+v, sc=%v) = %q, want %q", c.ext, c.sc, got, c.want)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := tinyCfg("cholesky")
	cfg.Extensions = ccsim.Ext{P: true, M: true}
	a, err := ccsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ccsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.TrafficBytes != b.TrafficBytes ||
		a.ColdMisses != b.ColdMisses || a.PrefetchesIssued != b.PrefetchesIssued {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRunStreamsCustomWorkload(t *testing.T) {
	cfg := ccsim.DefaultConfig()
	cfg.Procs = 2
	streams := []ccsim.Stream{
		ccsim.Ops(
			ccsim.Op{Kind: ccsim.StatsOn},
			ccsim.Op{Kind: ccsim.Write, Addr: 0},
			ccsim.Op{Kind: ccsim.Barrier, Bar: 0},
		),
		ccsim.Ops(
			ccsim.Op{Kind: ccsim.StatsOn},
			ccsim.Op{Kind: ccsim.Barrier, Bar: 0},
			ccsim.Op{Kind: ccsim.Read, Addr: 0},
		),
	}
	r, err := ccsim.RunStreams(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reads != 1 || r.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", r.Reads, r.Writes)
	}
	// The read crossed the barrier after the write: coherence-correct and a
	// cold miss for the reader.
	if r.ColdMisses != 1 {
		t.Fatalf("cold misses = %d", r.ColdMisses)
	}
}

// TestRunStreamsRejectsInvalidOps runs two processors, the second of
// which issues an operation the machine cannot run as its third op. The
// run must return an error naming the processor, the operation's index and
// the bad field, not run the op as something else or crash into a
// simulator fault.
func TestRunStreamsRejectsInvalidOps(t *testing.T) {
	for _, c := range []struct {
		op   ccsim.Op
		want string
	}{
		{ccsim.Op{Kind: 42, Cycles: 7}, "unknown kind 42"},
		{ccsim.Op{Kind: -1}, "unknown kind -1"},
		{ccsim.Op{Kind: ccsim.Busy, Cycles: -5}, "busy cycles -5"},
		{ccsim.Op{Kind: ccsim.Barrier, Bar: -1}, "barrier id -1"},
		{ccsim.Op{Kind: ccsim.Barrier, Bar: math.MaxInt32 + 1}, "barrier id 2147483648 > 2147483647"},
	} {
		cfg := ccsim.DefaultConfig()
		cfg.Procs = 2
		streams := []ccsim.Stream{
			ccsim.Ops(
				ccsim.Op{Kind: ccsim.StatsOn},
				ccsim.Op{Kind: ccsim.Busy, Cycles: 10},
			),
			ccsim.Ops(
				ccsim.Op{Kind: ccsim.StatsOn},
				ccsim.Op{Kind: ccsim.Read, Addr: 0},
				c.op,
			),
		}
		_, err := ccsim.RunStreams(cfg, streams)
		if err == nil {
			t.Errorf("%+v: ran without error", c.op)
			continue
		}
		if f, ok := ccsim.AsFault(err); ok {
			t.Errorf("%+v: simulator fault %q, want an invalid-operation error: %v", c.op, f.Kind, err)
			continue
		}
		if want := "processor 1, operation 2: " + c.want; !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: error %q does not contain %q", c.op, err, want)
		}
	}
}

// TestOpKindsMatchInternal pins each public operation kind to the
// processor's kind of the same value: RunStreams and WorkloadOps convert
// between the two by value.
func TestOpKindsMatchInternal(t *testing.T) {
	for _, k := range []struct {
		pub ccsim.OpKind
		in  proc.OpKind
	}{
		{ccsim.Busy, proc.OpBusy},
		{ccsim.Read, proc.OpRead},
		{ccsim.Write, proc.OpWrite},
		{ccsim.Acquire, proc.OpAcquire},
		{ccsim.Release, proc.OpRelease},
		{ccsim.Barrier, proc.OpBarrier},
		{ccsim.StatsOn, proc.OpStatsOn},
	} {
		if int(k.pub) != int(k.in) {
			t.Errorf("public kind %d, internal kind %d", k.pub, k.in)
		}
	}
}

func TestMissRateAccessors(t *testing.T) {
	r := &ccsim.Result{Reads: 200, ColdMisses: 10, CoherenceMisses: 4, ReplacementMisses: 2}
	if r.ColdMissRate() != 5.0 {
		t.Fatalf("ColdMissRate = %v", r.ColdMissRate())
	}
	if r.CoherenceMissRate() != 2.0 {
		t.Fatalf("CoherenceMissRate = %v", r.CoherenceMissRate())
	}
	if r.ReplacementMissRate() != 1.0 {
		t.Fatalf("ReplacementMissRate = %v", r.ReplacementMissRate())
	}
	empty := &ccsim.Result{}
	if empty.ColdMissRate() != 0 {
		t.Fatal("zero-read rate not 0")
	}
}

func TestRelativeHelpers(t *testing.T) {
	base := &ccsim.Result{ExecTime: 1000, TrafficBytes: 500}
	r := &ccsim.Result{ExecTime: 800, TrafficBytes: 750}
	if r.RelativeTo(base) != 0.8 {
		t.Fatalf("RelativeTo = %v", r.RelativeTo(base))
	}
	if r.TrafficRelativeTo(base) != 1.5 {
		t.Fatalf("TrafficRelativeTo = %v", r.TrafficRelativeTo(base))
	}
}

func TestCostTable(t *testing.T) {
	rows := ccsim.CostTable(16)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Protocol != "BASIC" || !strings.Contains(rows[0].MemoryBitsPerLine, "16 presence bits") {
		t.Fatalf("BASIC row wrong: %+v", rows[0])
	}
}

func TestMeshConfig(t *testing.T) {
	cfg := tinyCfg("ocean")
	cfg.Net = ccsim.Mesh
	cfg.LinkBits = 16
	r, err := ccsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Network, "mesh") || !strings.Contains(r.Network, "16-bit") {
		t.Fatalf("network label %q", r.Network)
	}
}

// TestMeshRejectsBadLinkWidth: a mesh link width that is not a positive
// multiple of 8 bits is a configuration error Run returns, not a panic out
// of the library.
func TestMeshRejectsBadLinkWidth(t *testing.T) {
	for _, bits := range []int{0, 12, -16} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("LinkBits %d: Run panicked: %v", bits, p)
				}
			}()
			cfg := tinyCfg("ocean")
			cfg.Net = ccsim.Mesh
			cfg.LinkBits = bits
			if _, err := ccsim.Run(cfg); err == nil || !strings.Contains(err.Error(), "link width") {
				t.Errorf("LinkBits %d: err = %v, want a link-width error", bits, err)
			}
		}()
	}
}

func TestNarrowLinksSlowDown(t *testing.T) {
	exec := func(bits int) int64 {
		cfg := tinyCfg("mp3d")
		cfg.Net = ccsim.Mesh
		cfg.LinkBits = bits
		r, err := ccsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.ExecTime
	}
	if !(exec(16) > exec(64)) {
		t.Fatal("16-bit mesh not slower than 64-bit")
	}
}

func TestExtensionTuningKnobs(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.Extensions = ccsim.Ext{P: true, CW: true}
	cfg.PrefetchMaxK = 2
	cfg.CWThreshold = 4
	cfg.WriteCacheBlocks = 8
	if _, err := ccsim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.PrefetchNackDirty = true
	if _, err := ccsim.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSCConfiguration(t *testing.T) {
	cfg := tinyCfg("water")
	cfg.SC = true
	r, err := ccsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Protocol != "BASIC-SC" {
		t.Fatalf("protocol %q", r.Protocol)
	}
	if r.WriteStall == 0 {
		t.Fatal("no write stall under SC")
	}
	rc, err := ccsim.Run(tinyCfg("water"))
	if err != nil {
		t.Fatal(err)
	}
	if rc.ExecTime >= r.ExecTime {
		t.Fatalf("RC (%d) not faster than SC (%d)", rc.ExecTime, r.ExecTime)
	}
}

func TestWorkloadsDataVerified(t *testing.T) {
	// Every kernel, under the heaviest extension stack, with the
	// data-value invariant checked end to end.
	for _, wl := range ccsim.Workloads() {
		for _, ext := range []ccsim.Ext{{}, {P: true, CW: true, M: true}} {
			cfg := tinyCfg(wl)
			cfg.Extensions = ext
			cfg.VerifyData = true
			if _, err := ccsim.Run(cfg); err != nil {
				t.Fatalf("%s %+v: %v", wl, ext, err)
			}
		}
	}
}

func TestWorkloadsDataVerifiedUnderSC(t *testing.T) {
	for _, wl := range ccsim.Workloads() {
		cfg := tinyCfg(wl)
		cfg.SC = true
		cfg.Extensions = ccsim.Ext{P: true, M: true}
		cfg.VerifyData = true
		if _, err := ccsim.Run(cfg); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
	}
}

// TestWorkloadsDataVerifiedFiniteAssociative also requires each verified
// run to equal the same run unverified: reading a line's words must not
// touch the LRU ages, or a verifying run would replace other lines.
func TestWorkloadsDataVerifiedFiniteAssociative(t *testing.T) {
	for _, wl := range ccsim.Workloads() {
		cfg := tinyCfg(wl)
		cfg.SLCBlocks = 64
		cfg.SLCWays = 2
		cfg.DirPointers = 2
		cfg.Extensions = ccsim.Ext{P: true, CW: true}
		plain, err := ccsim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		cfg.VerifyData = true
		verified, err := ccsim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if !reflect.DeepEqual(verified, plain) {
			t.Errorf("%s: verified run differs from the unverified one: exec %d vs %d pclocks",
				wl, verified.ExecTime, plain.ExecTime)
		}
	}
}
