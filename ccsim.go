// Package ccsim is a detailed architectural simulator for the cache
// protocol extensions studied in Dahlgren, Dubois & Stenström, "Combined
// Performance Gains of Simple Cache Protocol Extensions" (ISCA 1994).
//
// It models a 16-node CC-NUMA multiprocessor — two-level caches, lockup-free
// second-level cache with write buffers, a full-map directory-based
// write-invalidate protocol, queue-based locks at memory, and either a
// contention-free uniform network or a wormhole-routed mesh — and the
// paper's three protocol extensions in every combination:
//
//   - P:  adaptive sequential prefetching
//   - M:  the migratory-sharing optimization
//   - CW: competitive update with write caches
//
// under sequential or release consistency.
//
// A minimal run:
//
//	cfg := ccsim.DefaultConfig()
//	cfg.Workload = "mp3d"
//	cfg.Extensions = ccsim.Ext{P: true, CW: true}
//	res, err := ccsim.Run(cfg)
//
// res then carries the execution-time decomposition, miss-rate components,
// and network traffic the paper's figures and tables report.
package ccsim

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"

	"ccsim/internal/check"
	"ccsim/internal/core"
	"ccsim/internal/machine"
	"ccsim/internal/memsys"
	"ccsim/internal/proc"
	"ccsim/internal/sim"
	"ccsim/internal/trace"
	"ccsim/internal/workload"
)

// Ext selects the protocol extensions applied on top of the BASIC
// write-invalidate protocol.
type Ext struct {
	P  bool // adaptive sequential prefetching
	M  bool // migratory-sharing optimization
	CW bool // competitive update + write cache (requires release consistency)
}

// Network selects the interconnect model.
type Network int

const (
	// Uniform is the paper's default: contention-free, 54-pclock
	// node-to-node latency.
	Uniform Network = iota
	// Mesh is the wormhole-routed 2-D mesh of the paper's §5.3; set
	// LinkBits to 64, 32 or 16.
	Mesh
)

// Config selects one simulation.
type Config struct {
	// Workload names one of the five kernels: "mp3d", "cholesky", "water",
	// "lu", "ocean". Leave empty when calling RunStreams.
	Workload string
	// Scale multiplies the workload's problem size (1.0 = default).
	Scale float64

	Procs int // processor count (paper: 16)

	Extensions Ext
	SC         bool // sequential consistency instead of release consistency

	Net      Network
	LinkBits int // mesh link width (64, 32, 16)

	// SLCBlocks is the second-level cache size in 32-byte blocks;
	// 0 = infinite (paper default). 512 models the paper's 16-KB SLC.
	SLCBlocks int
	// SLCWays is the SLC associativity (0 or 1 = the paper's direct-mapped
	// organization; higher values add LRU set associativity).
	SLCWays int
	// FLWBEntries/SLWBEntries size the write buffers; 0 selects the
	// paper's defaults (8/16 under RC, 1/16 under SC).
	FLWBEntries int
	SLWBEntries int

	// Extension tuning; zero values select the paper's settings.
	PrefetchMaxK     int // cap on the adaptive degree of prefetching (default 8)
	CWThreshold      int // competitive threshold (default 1, per §3.3 with write caches)
	WriteCacheBlocks int // write-cache size in blocks (default 4)
	// PrefetchNackDirty makes the home reject prefetches that find the
	// block dirty in another cache (a DASH-style alternative kept as an
	// ablation; the paper's scheme services them).
	PrefetchNackDirty bool

	// DirPointers selects a limited-pointer directory (Dir_iB) with that
	// many sharer pointers per memory line; 0 keeps the paper's full
	// presence-flag map. Overflowing entries broadcast their
	// invalidations — the classic storage/traffic trade-off, kept here as
	// an extension study.
	DirPointers int

	// VerifyData carries per-word version numbers through every protocol
	// data path and fails the run if any processor ever observes a
	// location's value moving backward — the data-value invariant of
	// coherence. Costs simulation speed; meant for validation.
	VerifyData bool

	// TraceWriter, when non-nil, streams a protocol trace there: every
	// message send and delivery, directory transition, cache fill and
	// eviction, one line per event. The lines are rendered off the
	// simulation goroutine and arrive a batch of events at a time, one
	// Write call per batch. Write is called from one goroutine of the run,
	// never concurrently, and every call has returned before Run returns,
	// a faulting run's included; that trace ends at the fault. A Write
	// that panics fails the run with an error.
	TraceWriter io.Writer
	// TraceBlocks restricts the trace to the blocks containing these byte
	// addresses (empty = all blocks).
	TraceBlocks []uint64

	// Telemetry, when non-nil, collects transaction spans, stall intervals
	// and utilization samples during the run (see NewTelemetry). Leave nil
	// for zero overhead.
	Telemetry *Telemetry

	// Cancel, when non-nil, is a cooperative shutdown flag: firing it from
	// any goroutine (a signal handler, an interrupted sweep) aborts the run
	// at the next event batch with a *SimFault of kind FaultCanceled
	// instead of killing the process mid-state. One flag may be shared
	// across concurrent runs. Leave nil for zero overhead.
	Cancel *Cancel

	// MaxEvents aborts the run with a *SimFault once this many simulation
	// events have executed (0 = no limit) — the watchdog's guard against
	// runaway protocol activity.
	MaxEvents uint64
	// Deadline aborts the run with a *SimFault before simulated time
	// passes this many pclocks (0 = no limit).
	Deadline int64
	// NoProgressEvents tunes the watchdog's livelock detector: abort after
	// this many consecutive events without any processor retiring an
	// operation. 0 selects the machine default (2M events).
	NoProgressEvents uint64

	// FaultInject, when it equals this run's "workload/protocol" identity
	// (e.g. "mp3d/P+CW"), makes the simulation panic deliberately shortly
	// after it starts. It exists to exercise the fault-containment path
	// end to end: the panic surfaces as a *SimFault like any real protocol
	// bug. The extended form "<mutation>@<workload/protocol>" (e.g.
	// "wb-drop-word@mp3d/BASIC") instead arms a one-shot protocol mutation
	// — a single deliberately wrong transition — to prove the live checker
	// catches real protocol bugs at the offending event (see Config.Check).
	// Leave empty for normal runs.
	FaultInject string

	// Check, when non-nil, attaches the live coherence checker: shadow
	// directory/cache/write-cache state plus a sequential value oracle,
	// asserted at every protocol transition. The first violated invariant
	// fails the run with a *SimFault naming the message, block and
	// transition (AsFault recovers it). Implies VerifyData. Leave nil for
	// zero overhead; use a fresh NewChecker per run.
	Check *Checker

	// Sharing, when non-nil, attaches the sharing-pattern analyzer: an
	// online per-block classifier over the measured section's access stream
	// (read-only / read-mostly / migratory / producer-consumer /
	// false-sharing / irregular) attributing misses, invalidations, update
	// traffic and miss latency to each class. The report lands in
	// Result.Sharing; with Telemetry also attached, per-class counter
	// tracks appear in the timeline export. Leave nil for zero overhead;
	// use a fresh NewSharingAnalytics per run.
	Sharing *SharingAnalytics
}

// Checker is the live coherence checker attached via Config.Check; create
// one with NewChecker. See internal/check for the invariants it asserts.
type Checker = check.Oracle

// NewChecker returns a live coherence checker for one run.
func NewChecker() *Checker { return check.New() }

// Cancel is the cooperative shutdown flag attached via Config.Cancel; the
// zero value is ready to use. Fire it with Cancel.Cancel() from any
// goroutine.
type Cancel = sim.Cancel

// DefaultConfig returns the paper's baseline: 16 processors, BASIC protocol
// under release consistency, uniform network, infinite SLC.
func DefaultConfig() Config {
	return Config{Scale: 1.0, Procs: 16, LinkBits: 64}
}

func (c Config) coreParams() core.Params {
	p := core.DefaultParams()
	p.Nodes = c.Procs
	p.P = c.Extensions.P
	p.M = c.Extensions.M
	p.CW = c.Extensions.CW
	p.SC = c.SC
	p.SLCSets = c.SLCBlocks
	p.SLCWays = c.SLCWays
	if c.SC {
		// Paper §5.2: under SC a single FLWB entry suffices; the SLWB still
		// tracks pending prefetches when P is on.
		p.FLWBEntries = 1
	}
	if c.FLWBEntries > 0 {
		p.FLWBEntries = c.FLWBEntries
	}
	if c.SLWBEntries > 0 {
		p.SLWBEntries = c.SLWBEntries
	}
	if c.PrefetchMaxK > 0 {
		p.PrefetchMaxK = c.PrefetchMaxK
	}
	if c.CWThreshold > 0 {
		p.CWThreshold = c.CWThreshold
	}
	if c.WriteCacheBlocks > 0 {
		p.WriteCacheBlocks = c.WriteCacheBlocks
	}
	p.PrefetchNackDirty = c.PrefetchNackDirty
	p.DirPointers = c.DirPointers
	p.VerifyData = c.VerifyData
	return p
}

func (c Config) machineConfig() machine.Config {
	mc := machine.Config{
		Core:             c.coreParams(),
		LinkBits:         c.LinkBits,
		Tele:             c.Telemetry,
		MaxEvents:        c.MaxEvents,
		MaxTime:          sim.Time(c.Deadline),
		NoProgressEvents: c.NoProgressEvents,
		Cancel:           c.Cancel,
		Check:            c.Check,
		Sharing:          c.Sharing,
	}
	if c.FaultInject != "" {
		ident := c.Workload + "/" + c.ProtocolName()
		if kind, target, cut := strings.Cut(c.FaultInject, "@"); cut {
			if target == ident {
				mc.Core.Mutate = kind
			}
		} else if c.FaultInject == ident {
			mc.InjectPanic = true
		}
	}
	if c.Net == Mesh {
		mc.Net = machine.NetMesh
	}
	return mc
}

// ProtocolName returns the paper's name for the configured protocol
// (BASIC, P, CW, M, P+CW, P+M, CW+M, P+CW+M, with -SC under sequential
// consistency).
func (c Config) ProtocolName() string {
	p := c.coreParams()
	return p.ProtocolName()
}

// Run simulates the configured workload to completion and returns its
// measurements. The run is deterministic: identical configurations produce
// identical results.
func Run(cfg Config) (*Result, error) {
	if cfg.Workload == "" {
		return nil, fmt.Errorf("ccsim: no workload named; use RunStreams for custom streams")
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	streams, err := workload.Streams(cfg.Workload, cfg.Procs, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return runStreams(cfg, streams)
}

// Workloads lists the available kernel names in the paper's order.
func Workloads() []string { return workload.Names() }

// WorkloadOps expands a built-in kernel into per-processor operation
// slices, e.g. to export it with WriteTrace or to post-process it.
func WorkloadOps(name string, procs int, scale float64) ([][]Op, error) {
	streams, err := workload.Streams(name, procs, scale)
	if err != nil {
		return nil, err
	}
	out := make([][]Op, len(streams))
	for p, s := range streams {
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			out[p] = append(out[p], Op{
				Kind:   OpKind(op.Kind),
				Addr:   uint64(op.Addr),
				Cycles: op.Cycles,
				Bar:    op.Bar,
			})
		}
	}
	return out, nil
}

// HardwareCost is one row of the paper's Table 1: the hardware an extension
// needs beyond the BASIC protocol.
type HardwareCost = core.HardwareCost

// CostTable returns the paper's Table 1 for a machine with the given node
// count.
func CostTable(nodes int) []HardwareCost { return core.CostTable(nodes) }

// StorageBits quantifies a configuration's coherence-state storage per
// node (the companion technical report's cost model).
type StorageBits = core.StorageBits

// ComputeStorage returns the per-node storage a configuration needs, for
// an SLC of slcFrames lines and memBlocks blocks of local memory.
func ComputeStorage(cfg Config, slcFrames, memBlocks int) StorageBits {
	return core.ComputeStorage(cfg.coreParams(), slcFrames, memBlocks)
}

// RunStreams simulates custom operation streams, one per processor, against
// the configured machine. Each stream must begin with a StatsOn operation.
// An operation of unknown kind, with negative busy cycles or with a
// negative barrier id ends the run with an error naming its processor and
// its index in that processor's stream.
func RunStreams(cfg Config, streams []Stream) (*Result, error) {
	adapted := make([]proc.Stream, len(streams))
	for i, s := range streams {
		adapted[i] = &streamAdapter{s: s, proc: i}
	}
	return runStreams(cfg, adapted)
}

func runStreams(cfg Config, streams []proc.Stream) (res *Result, err error) {
	mc := cfg.machineConfig()
	if cfg.TraceWriter != nil {
		var f trace.Filter
		for _, a := range cfg.TraceBlocks {
			f.Blocks = append(f.Blocks, uint64(memsys.BlockOf(memsys.Addr(a))))
		}
		mc.Tracer = trace.New(cfg.TraceWriter, f)
		// Deferred first so it runs last, after a panic has become a fault:
		// every path writes the whole trace before the run returns.
		defer func() {
			if cerr := mc.Tracer.Close(); cerr != nil {
				res, err = nil, errors.Join(err, cerr)
			}
		}()
	}
	m, merr := machine.New(mc, streams)
	if merr != nil {
		return nil, merr
	}
	// Contain protocol assertions: the simulator's internal invariants stay
	// panics (DESIGN.md), but none escapes Run — a crash surfaces as a
	// structured *SimFault with the dispatch context and machine snapshot.
	// An invalid custom operation is the caller's error, not a fault, and
	// returns as the plain error it is.
	defer func() {
		if v := recover(); v != nil {
			if oe, ok := v.(opError); ok {
				res, err = nil, oe.err
				return
			}
			res, err = nil, m.Recovered(v, debug.Stack())
		}
	}()
	r, rerr := m.Run()
	if rerr != nil {
		return nil, rerr
	}
	return convertResult(cfg, r), nil
}
