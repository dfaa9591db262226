// Package machine assembles a complete simulated multiprocessor — engine,
// interconnect, coherence system, processors and workload streams — runs it
// to completion, and collects the results the paper's evaluation reports.
package machine

import (
	"fmt"

	"ccsim/internal/check"
	"ccsim/internal/core"
	"ccsim/internal/fault"
	"ccsim/internal/network"
	"ccsim/internal/proc"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
	"ccsim/internal/telemetry"
	"ccsim/internal/trace"
)

// NetKind selects the interconnect model.
type NetKind int

const (
	// NetUniform is the paper's default contention-free network.
	NetUniform NetKind = iota
	// NetMesh is the §5.3 wormhole mesh; LinkBits selects the width.
	NetMesh
)

// Config configures one simulation run.
type Config struct {
	Core core.Params

	Net      NetKind
	LinkBits int // mesh link width in bits (64/32/16)

	// MaxTime aborts runaway simulations past this simulated time
	// (0 = no limit); the watchdog reports the abort as a deadline fault.
	MaxTime sim.Time

	// MaxEvents aborts runs executing more than this many events
	// (0 = no limit).
	MaxEvents uint64

	// NoProgressEvents is the livelock threshold: abort when this many
	// consecutive events execute without any processor retiring an
	// operation. 0 selects DefaultNoProgressEvents; negative values are not
	// representable — use MaxEvents to bound a run outright.
	NoProgressEvents uint64

	// InjectPanic deliberately panics inside the simulation shortly after
	// it starts — the chaos hook behind cmd/experiments -inject-fault,
	// exercising the whole fault-containment path on demand.
	InjectPanic bool

	// Tracer, when non-nil, receives protocol events.
	Tracer *trace.Tracer

	// Tele, when non-nil, collects transaction spans, processor stall
	// intervals and periodic utilization samples for the run.
	Tele *telemetry.Collector

	// Cancel, when non-nil, is the cooperative shutdown flag: firing it
	// from any goroutine aborts the run at the next event batch with a
	// canceled fault. May be shared across concurrent machines.
	Cancel *sim.Cancel

	// Check, when non-nil, attaches the live coherence checker: shadow
	// state updated at every directory/SLC transition, with a structured
	// SimFault at the first violated invariant. Forces VerifyData on (the
	// checker's value oracle rides the version plumbing). Nil is zero-cost
	// on the hot path, like Progress.
	Check *check.Oracle

	// Sharing, when non-nil, attaches the sharing-pattern analyzer to the
	// measured section's access stream. Nil costs one pointer test per hook,
	// like Check.
	Sharing *telemetry.Sharing
}

// DefaultConfig returns the paper's baseline machine (BASIC, RC, uniform
// network).
func DefaultConfig() Config {
	return Config{Core: core.DefaultParams(), Net: NetUniform, LinkBits: 64}
}

// DefaultNoProgressEvents is the livelock threshold when the config leaves
// it zero. Legitimate no-progress spans are bounded by a few protocol
// round trips per processor (tens of events each); two million events
// without one operation retiring is orders of magnitude past any legal
// window at the paper's machine sizes.
const DefaultNoProgressEvents = 2_000_000

// DefaultFlightRecorder is the flight recorder's depth in protocol
// messages: enough history to see the message pattern around a fault
// without bloating dumps.
const DefaultFlightRecorder = 64

// Machine is an assembled simulation.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Sys   *core.System
	Net   network.Net
	Procs []*proc.Processor

	statsStart   sim.Time
	statsStarted bool
	doneCount    int
}

// meshSide returns the smallest square mesh holding n nodes.
func meshSide(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// New builds a machine whose processor i executes streams[i].
func New(cfg Config, streams []proc.Stream) (*Machine, error) {
	if len(streams) != cfg.Core.Nodes {
		return nil, fmt.Errorf("machine: %d streams for %d nodes", len(streams), cfg.Core.Nodes)
	}
	if cfg.Check != nil {
		// The checker's sequential value oracle rides the VerifyData
		// version plumbing; force it on before the system is built.
		cfg.Core.VerifyData = true
	}
	eng := sim.NewEngine()
	var net network.Net
	switch cfg.Net {
	case NetUniform:
		net = network.NewUniform(eng, cfg.Core.Timing.NetLatency)
	case NetMesh:
		if cfg.LinkBits <= 0 || cfg.LinkBits%8 != 0 {
			return nil, fmt.Errorf("machine: mesh link width %d bits, need a positive multiple of 8", cfg.LinkBits)
		}
		side := meshSide(cfg.Core.Nodes)
		net = network.NewMesh(eng, side, side, cfg.LinkBits)
	default:
		return nil, fmt.Errorf("machine: unknown network kind %d", cfg.Net)
	}
	sys, err := core.NewSystem(eng, net, cfg.Core)
	if err != nil {
		return nil, err
	}
	sys.Tracer = cfg.Tracer
	sys.Tele = cfg.Tele
	sys.Shr = cfg.Sharing
	if cfg.Check != nil {
		cfg.Check.Reset(cfg.Core.Nodes)
		sys.Check = cfg.Check
	}
	sys.Rec = fault.NewRecorder(DefaultFlightRecorder)
	m := &Machine{Cfg: cfg, Eng: eng, Sys: sys, Net: net}
	// Measurement starts at the workloads' StatsOn marker.
	sys.SetStatsEnabled(false)
	for i, s := range streams {
		p := proc.New(eng, sys.Nodes[i].Cache, s, proc.Config{
			ID:        i,
			SC:        cfg.Core.SC,
			FLCAccess: cfg.Core.Timing.FLCAccess,
			FLCFill:   cfg.Core.Timing.FLCFill,
		})
		p.StatsOnHook = m.onStatsOn
		p.DoneHook = func() { m.doneCount++ }
		p.Tele = cfg.Tele
		m.Procs = append(m.Procs, p)
	}
	if cfg.Tele != nil {
		for _, n := range sys.Nodes {
			cfg.Tele.WatchResource("bus", n.ID, n.Bus)
			cfg.Tele.WatchResource("slc", n.ID, n.Cache.SLCResource())
			cache := n.Cache
			cfg.Tele.WatchGauge("mshrs", n.ID, func() int64 {
				return int64(cache.PendingTxns())
			})
		}
		if mesh, ok := net.(*network.Mesh); ok {
			cfg.Tele.WatchGauge("mesh-msgs", -1, func() int64 {
				return int64(mesh.Msgs())
			})
			cfg.Tele.WatchGauge("mesh-wait", -1, func() int64 {
				return int64(mesh.WaitTime())
			})
		}
		if shr := cfg.Sharing; shr != nil {
			// One machine-wide counter track per sharing class in the
			// timeline export, sampled alongside the utilization gauges.
			for c := telemetry.SharingClass(0); c < telemetry.NumSharingClasses; c++ {
				c := c
				cfg.Tele.WatchGauge("sharing-"+c.String()+"-blocks", -1, func() int64 {
					return shr.ClassBlocks(c)
				})
				cfg.Tele.WatchGauge("sharing-"+c.String()+"-misses", -1, func() int64 {
					return shr.ClassMisses(c)
				})
			}
		}
	}
	return m, nil
}

func (m *Machine) onStatsOn() {
	if m.statsStarted {
		return
	}
	m.statsStarted = true
	m.statsStart = m.Eng.Now()
	m.Sys.SetStatsEnabled(true)
	for _, p := range m.Procs {
		p.SetStatsEnabled(true)
	}
}

// injectPanic is the event Config.InjectPanic schedules: a deliberate
// panic inside the simulation, for exercising the fault path.
func injectPanic(any) { panic("machine: deliberate fault injection") }

// Run executes the simulation to completion (all streams exhausted and all
// protocol activity drained) under the watchdog, verifies the coherence
// invariants, and returns the collected results. A watchdog abort —
// runaway event count, deadline, deadlock, livelock — returns a
// *fault.SimFault carrying the machine's diagnostic snapshot.
func (m *Machine) Run() (*Result, error) {
	for _, p := range m.Procs {
		p.Start()
	}
	if m.Cfg.Tele != nil {
		m.Cfg.Tele.StartSampler(m.Eng)
	}
	if m.Cfg.InjectPanic {
		m.Eng.AfterCall(1000, injectPanic, nil)
	}
	np := m.Cfg.NoProgressEvents
	if np == 0 {
		np = DefaultNoProgressEvents
	}
	wd := &sim.Watchdog{
		MaxEvents:        m.Cfg.MaxEvents,
		Deadline:         m.Cfg.MaxTime,
		NoProgressEvents: np,
		Quiesced: func() bool {
			return m.doneCount == len(m.Procs) && m.Sys.Quiesced()
		},
		Blocked: m.blockedAgents,
		Cancel:  m.Cfg.Cancel,
	}
	if f := m.Eng.RunWatched(wd); f != nil {
		if snap := m.faultSnapshot(f.Block, f.HasBlock); snap != nil {
			f.Snapshot = snap
		}
		return nil, f
	}
	if err := m.Sys.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("machine: invariant violation: %w", err)
	}
	if n := len(m.Sys.DataViolations); n > 0 {
		return nil, fmt.Errorf("machine: %d data-value violations, first: %s",
			n, m.Sys.DataViolations[0])
	}
	if !m.statsStarted {
		return nil, fmt.Errorf("machine: workload never emitted StatsOn")
	}
	return m.collect(), nil
}

// Recovered converts a panic recovered during this machine's run into a
// structured SimFault: the panic value, the dispatch context (which
// controller was handling which protocol message), the Go stack, and the
// machine's diagnostic snapshot.
func (m *Machine) Recovered(v any, stack []byte) *fault.SimFault {
	if f, ok := v.(*fault.SimFault); ok {
		// The live checker panics with an already-structured fault naming
		// the message, block and transition; fill in what only the machine
		// knows and keep its attribution.
		f.Time = int64(m.Eng.Now())
		f.Steps = m.Eng.Steps()
		f.Stack = stack
		f.Snapshot = m.faultSnapshot(f.Block, f.HasBlock)
		return f
	}
	f := &fault.SimFault{
		Kind:      fault.KindPanic,
		Time:      int64(m.Eng.Now()),
		Steps:     m.Eng.Steps(),
		Component: "machine",
		Message:   fmt.Sprint(v),
		Stack:     stack,
	}
	if comp, kind, b, ok := m.Sys.LastDispatch(); ok {
		f.Component, f.MsgKind, f.Block, f.HasBlock = comp, kind, uint64(b), true
	}
	f.Snapshot = m.faultSnapshot(f.Block, f.HasBlock)
	return f
}

// blockedAgents names everything still blocked: processors whose streams
// have not finished, plus the synchronization fabric's view (locks,
// barriers, pending reads).
func (m *Machine) blockedAgents() []string {
	var out []string
	for _, p := range m.Procs {
		if !p.Done() {
			out = append(out, fmt.Sprintf("proc %d (stream unfinished)", p.ID))
		}
	}
	return append(out, m.Sys.BlockedSync()...)
}

// faultSnapshot captures the diagnostic snapshot, shielding the fault path
// itself: a machine inconsistent enough to panic while snapshotting
// reports the fault without one rather than crashing the report.
func (m *Machine) faultSnapshot(block uint64, hasBlock bool) (snap *fault.Snapshot) {
	defer func() {
		if recover() != nil {
			snap = nil
		}
	}()
	snap = m.Sys.FaultSnapshot(block, hasBlock)
	snap.Blocked = m.blockedAgents()
	// Best-effort invariant findings: a coherence violation that caused a
	// hang or panic shows up in the dump even though the machine never
	// reached quiescence (blocks with in-flight transactions are skipped).
	snap.Invariants = m.Sys.CheckInvariantsBestEffort(8)
	return snap
}

func (m *Machine) collect() *Result {
	r := &Result{
		Protocol:     m.Cfg.Core.ProtocolName(),
		Network:      m.Net.Name(),
		Nodes:        m.Cfg.Core.Nodes,
		Traffic:      m.Sys.Traffic,
		MissLatency:  m.Sys.MissLatency,
		TotalPclocks: int64(m.Eng.Now()),
		Queue:        m.Eng.QueueStats(),
	}
	for _, n := range m.Sys.Nodes {
		for _, w := range []struct {
			name string
			res  *sim.Resource
		}{{"bus", n.Bus}, {"slc", n.Cache.SLCResource()}} {
			r.Resources = append(r.Resources, ResourceUtil{
				Name:          w.name,
				Node:          n.ID,
				Busy:          int64(w.res.BusyTime()),
				Wait:          int64(w.res.WaitTime()),
				Uses:          w.res.Uses(),
				MaxQueueDepth: w.res.MaxQueueDepth(),
			})
		}
	}
	var lastDone sim.Time
	for _, p := range m.Procs {
		if p.DoneTime() > lastDone {
			lastDone = p.DoneTime()
		}
		r.Procs = append(r.Procs, p.Stats)
		r.Busy += p.Stats.Busy
		r.ReadStall += p.Stats.ReadStall
		r.WriteStall += p.Stats.WriteStall
		r.AcquireStall += p.Stats.AcquireStall
		r.BarrierStall += p.Stats.BarrierStall
		r.ReleaseStall += p.Stats.ReleaseStall
		r.Reads += p.Stats.Reads
		r.Writes += p.Stats.Writes
	}
	r.ExecTime = int64(lastDone - m.statsStart)
	for _, n := range m.Sys.Nodes {
		c := n.Cache
		for k, v := range c.Misses {
			r.Misses[k] += v
		}
		r.Cache.FLCReadMisses += c.CStats.FLCReadMisses
		r.Cache.SLCReadMisses += c.CStats.SLCReadMisses
		r.Cache.SLCHits += c.CStats.SLCHits
		r.Cache.WCHits += c.CStats.WCHits
		r.Cache.PartialHits += c.CStats.PartialHits
		r.Cache.ReadMissLatency += c.CStats.ReadMissLatency
		r.Cache.ReadMissCount += c.CStats.ReadMissCount
		if pf := c.Prefetcher(); pf != nil {
			r.Prefetch.Issued += pf.Stats.Issued
			r.Prefetch.Useful += pf.Stats.Useful
			r.Prefetch.Discard += pf.Stats.Discard
			r.Prefetch.PartHits += pf.Stats.PartHits
			r.Prefetch.Nacked += pf.Stats.Nacked
		}
		h := n.Home
		r.OwnReqs += h.OwnReqs
		r.UpdateReqs += h.UpdateReqs
		r.MigDetections += h.MigratoryDetections
		r.MigReverts += h.MigratoryReverts
		r.ExclSupplies += h.ExclusiveSupplies
		r.PointerOverflows += h.PointerOverflows
		r.BroadcastInvs += h.BroadcastInvalidations
	}
	return r
}

// ResourceUtil summarizes one contended resource's lifetime occupancy.
type ResourceUtil struct {
	Name          string
	Node          int
	Busy          int64 // total pclocks the resource was occupied
	Wait          int64 // total pclocks requests waited for it
	Uses          uint64
	MaxQueueDepth int // peak simultaneous reservations
}

// Result holds everything a run produces.
type Result struct {
	Protocol string
	Network  string
	Nodes    int

	// ExecTime is the measured parallel-section duration in pclocks (from
	// the StatsOn marker to the last processor's completion).
	ExecTime int64

	// TotalPclocks is the full run duration, including the unmeasured
	// initialization phase — the denominator for resource utilization.
	TotalPclocks int64

	// Resources reports each node's bus and SLC occupancy over the run.
	Resources []ResourceUtil

	// Summed per-processor time decomposition. BarrierStall is folded into
	// acquire stall in paper-style reports.
	Busy, ReadStall, WriteStall, AcquireStall, BarrierStall, ReleaseStall int64

	Reads, Writes uint64
	Procs         []stats.Proc

	Misses  stats.Misses
	Cache   core.CacheStats
	Traffic stats.Traffic
	// MissLatency is the distribution of demand-miss service times over
	// every node.
	MissLatency stats.Hist

	Prefetch stats.Prefetch

	OwnReqs, UpdateReqs                     uint64
	MigDetections, MigReverts, ExclSupplies uint64
	PointerOverflows, BroadcastInvs         uint64

	// Queue is the event engine's internal scheduling profile for the run
	// (wheel vs overflow routing, migrations, cohort sizes, high-water
	// marks).
	Queue sim.QueueStats
}

// MissRatePct returns the given miss component as a percentage of shared
// reads, the denominator the paper's Table 2 uses.
func (r *Result) MissRatePct(k stats.MissKind) float64 {
	if r.Reads == 0 {
		return 0
	}
	return 100 * float64(r.Misses[k]) / float64(r.Reads)
}

// AvgReadMissLatency returns the mean demand read-miss service time in
// pclocks.
func (r *Result) AvgReadMissLatency() float64 {
	if r.Cache.ReadMissCount == 0 {
		return 0
	}
	return float64(r.Cache.ReadMissLatency) / float64(r.Cache.ReadMissCount)
}

// RelativeTo returns this run's execution time as a fraction of base's.
func (r *Result) RelativeTo(base *Result) float64 {
	if base.ExecTime == 0 {
		return 0
	}
	return float64(r.ExecTime) / float64(base.ExecTime)
}

// TimeShare returns the per-processor-average shares of busy and stall
// times, normalized so they can be plotted against another run.
func (r *Result) TimeShare() (busy, read, write, acq, rel float64) {
	n := float64(r.Nodes)
	return float64(r.Busy) / n, float64(r.ReadStall) / n, float64(r.WriteStall) / n,
		float64(r.AcquireStall) / n, float64(r.ReleaseStall) / n
}
