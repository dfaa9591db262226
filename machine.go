package ccsim

import (
	"fmt"
	"strings"

	"ccsim/internal/core"
	"ccsim/internal/fault"
	"ccsim/internal/memsys"
	"ccsim/internal/network"
	"ccsim/internal/proc"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
	"ccsim/internal/telemetry"
	"ccsim/internal/trace"
)

// This file assembles one simulated multiprocessor from a Config (event
// engine, interconnect, coherence system with every side channel the
// Config attaches, one processor per operation stream), runs it to
// completion under the watchdog and fills the Result the paper's
// evaluation reports.

// defaultNoProgressEvents is the livelock threshold when Config leaves
// NoProgressEvents zero. Legitimate no-progress spans are bounded by a few
// protocol round trips per processor (tens of events each); two million
// events without one operation retiring is orders of magnitude past any
// legal window at the paper's machine sizes.
const defaultNoProgressEvents = 2_000_000

// machine is one assembled simulation.
type machine struct {
	cfg   Config
	eng   *sim.Engine
	net   network.Net
	sys   *core.System
	procs []*proc.Processor

	injectPanic bool // Config.FaultInject names this run's identity

	// snap is the diagnostic snapshot faultSnapshot took at the run's
	// fault, nil until then or when the machine could not be snapshotted;
	// a replay fills in its message tail (replayTail).
	snap *fault.Snapshot

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

// newMachine builds the machine whose processor i executes streams[i] and
// attaches cfg's side channels: protocol trace, telemetry, live checker and
// sharing analyzer. It starts the trace renderer last, after every check
// that can fail, so an error leaves nothing to close.
func newMachine(cfg Config, streams []proc.Stream) (*machine, error) {
	p := cfg.coreParams()
	if len(streams) != p.Nodes {
		return nil, fmt.Errorf("machine: %d streams for %d nodes", len(streams), p.Nodes)
	}
	m := &machine{cfg: cfg}
	if cfg.FaultInject != "" {
		ident := cfg.Workload + "/" + p.ProtocolName()
		if kind, target, cut := strings.Cut(cfg.FaultInject, "@"); cut {
			if target == ident {
				p.Mutate = kind
			}
		} else if cfg.FaultInject == ident {
			m.injectPanic = true
		}
	}
	if cfg.Check != nil {
		// The checker's sequential value oracle rides the VerifyData
		// version plumbing; force it on before the system is built.
		p.VerifyData = true
	}
	m.eng = sim.NewEngine()
	if cfg.Net == Mesh {
		if cfg.LinkBits <= 0 || cfg.LinkBits%8 != 0 {
			return nil, fmt.Errorf("machine: mesh link width %d bits, need a positive multiple of 8", cfg.LinkBits)
		}
		side := meshSide(p.Nodes)
		m.net = network.NewMesh(m.eng, side, side, cfg.LinkBits)
	} else {
		m.net = network.NewUniform(m.eng, p.Timing.NetLatency)
	}
	sys, err := core.NewSystem(m.eng, m.net, p)
	if err != nil {
		return nil, err
	}
	m.sys = sys
	sys.Tele = cfg.Telemetry
	sys.Shr = cfg.Sharing
	if cfg.Check != nil {
		cfg.Check.Reset(p.Nodes)
		sys.Check = cfg.Check
	}
	// Measurement starts at the workloads' StatsOn marker.
	sys.SetStatsEnabled(false)
	onStatsOn, onDone := m.onStatsOn, func() { m.doneCount++ }
	m.procs = make([]*proc.Processor, len(streams))
	for i, s := range streams {
		pr := proc.New(m.eng, sys.Nodes[i].Cache, s, proc.Config{
			ID:        i,
			SC:        p.SC,
			FLCAccess: p.Timing.FLCAccess,
			FLCFill:   p.Timing.FLCFill,
		})
		pr.StatsOnHook = onStatsOn
		pr.DoneHook = onDone
		pr.Tele = cfg.Telemetry
		m.procs[i] = pr
	}
	if tele := cfg.Telemetry; tele != nil {
		m.watch(tele)
	}
	if cfg.TraceWriter != nil {
		var f trace.Filter
		for _, a := range cfg.TraceBlocks {
			f.Blocks = append(f.Blocks, uint64(memsys.BlockOf(memsys.Addr(a))))
		}
		sys.Tracer = trace.New(cfg.TraceWriter, f)
	}
	return m, nil
}

// watch registers the run's utilization gauges with the telemetry sampler:
// every node's bus, SLC and MSHR count, the mesh's load when there is one,
// and one machine-wide track per sharing class when the analyzer is
// attached too.
func (m *machine) watch(tele *telemetry.Collector) {
	for _, n := range m.sys.Nodes {
		tele.WatchResource("bus", n.ID, n.Bus)
		tele.WatchResource("slc", n.ID, n.Cache.SLCResource())
		cache := n.Cache
		tele.WatchGauge("mshrs", n.ID, func() int64 {
			return int64(cache.PendingTxns())
		})
	}
	if mesh, ok := m.net.(*network.Mesh); ok {
		tele.WatchGauge("mesh-msgs", -1, func() int64 {
			return int64(mesh.Msgs())
		})
		tele.WatchGauge("mesh-wait", -1, func() int64 {
			return int64(mesh.WaitTime())
		})
	}
	if shr := m.cfg.Sharing; shr != nil {
		for c := telemetry.SharingClass(0); c < telemetry.NumSharingClasses; c++ {
			tele.WatchGauge("sharing-"+c.String()+"-blocks", -1, func() int64 {
				return shr.ClassBlocks(c)
			})
			tele.WatchGauge("sharing-"+c.String()+"-misses", -1, func() int64 {
				return shr.ClassMisses(c)
			})
		}
	}
}

func (m *machine) onStatsOn() {
	if m.statsStarted {
		return
	}
	m.statsStarted = true
	m.statsStart = m.eng.Now()
	m.sys.SetStatsEnabled(true)
	for _, p := range m.procs {
		p.SetStatsEnabled(true)
	}
}

// injectPanic is the event Config.FaultInject schedules: a deliberate
// panic inside the simulation, for exercising the fault path.
func injectPanic(any) { panic("machine: deliberate fault injection") }

// run executes the simulation to completion (all streams exhausted and all
// protocol activity drained) under the watchdog, verifies the coherence
// invariants, and returns the run's Result. A watchdog abort (runaway
// event count, deadline, deadlock, livelock, cancel) returns a
// *fault.SimFault carrying the machine's diagnostic snapshot.
func (m *machine) run() (*Result, error) {
	for _, p := range m.procs {
		p.Start()
	}
	if m.cfg.Telemetry != nil {
		m.cfg.Telemetry.StartSampler(m.eng)
	}
	if m.injectPanic {
		m.eng.AfterCall(1000, injectPanic, nil)
	}
	np := m.cfg.NoProgressEvents
	if np == 0 {
		np = defaultNoProgressEvents
	}
	wd := &sim.Watchdog{
		MaxEvents:        m.cfg.MaxEvents,
		Deadline:         sim.Time(m.cfg.Deadline),
		NoProgressEvents: np,
		Quiesced: func() bool {
			return m.doneCount == len(m.procs) && m.sys.Quiesced()
		},
		Blocked: m.blockedAgents,
		Cancel:  m.cfg.Cancel,
	}
	if f := m.eng.RunWatched(wd); f != nil {
		if snap := m.faultSnapshot(f.Block, f.HasBlock); snap != nil {
			f.Snapshot = snap
		}
		return nil, f
	}
	if err := m.sys.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("machine: invariant violation: %w", err)
	}
	if n := len(m.sys.DataViolations); n > 0 {
		return nil, fmt.Errorf("machine: %d data-value violations, first: %s",
			n, m.sys.DataViolations[0])
	}
	if !m.statsStarted {
		return nil, fmt.Errorf("machine: workload never emitted StatsOn")
	}
	return m.result(), nil
}

// recovered converts a panic recovered during this machine's run into a
// structured SimFault: the panic value, the dispatch context (which
// controller was handling which protocol message), the Go stack, and the
// machine's diagnostic snapshot.
func (m *machine) recovered(v any, stack []byte) *fault.SimFault {
	f, ok := v.(*fault.SimFault)
	if ok {
		// The live checker panics with a fault naming the block and the
		// violated invariant, and the component only when it knows one
		// itself; the message being handled comes from the dispatch
		// context.
		if comp, kind, _, ok := m.sys.LastDispatch(); ok {
			if f.Component == "" {
				f.Component = comp
			}
			f.MsgKind = kind
		}
	} else {
		f = &fault.SimFault{
			Kind:      fault.KindPanic,
			Component: "machine",
			Message:   fmt.Sprint(v),
		}
		if comp, kind, b, ok := m.sys.LastDispatch(); ok {
			f.Component, f.MsgKind, f.Block, f.HasBlock = comp, kind, uint64(b), true
		}
	}
	f.Time = int64(m.eng.Now())
	f.Steps = m.eng.Steps()
	f.Stack = stack
	f.Snapshot = m.faultSnapshot(f.Block, f.HasBlock)
	return f
}

// blockedAgents names everything still blocked: processors whose streams
// have not finished, plus the synchronization fabric's view (locks,
// barriers, pending reads).
func (m *machine) blockedAgents() []string {
	var out []string
	for _, p := range m.procs {
		if !p.Done() {
			out = append(out, fmt.Sprintf("proc %d (stream unfinished)", p.ID))
		}
	}
	return append(out, m.sys.BlockedSync()...)
}

// faultSnapshot captures the diagnostic snapshot, shielding the fault path
// itself: a machine inconsistent enough to panic while snapshotting
// reports the fault without one rather than crashing the report.
func (m *machine) faultSnapshot(block uint64, hasBlock bool) (snap *fault.Snapshot) {
	defer func() {
		if recover() != nil {
			snap = nil
		}
		m.snap = snap
	}()
	snap = m.sys.FaultSnapshot(block, hasBlock)
	snap.Blocked = m.blockedAgents()
	// Best-effort invariant findings: a coherence violation that caused a
	// hang or panic shows up in the dump even though the machine never
	// reached quiescence (blocks with in-flight transactions are skipped).
	snap.Invariants = m.sys.CheckInvariantsBestEffort(8)
	return snap
}

// result sums the run's counters over processors, caches and homes.
func (m *machine) result() *Result {
	sys, tot := m.sys, int64(m.eng.Now())
	r := &Result{
		Protocol:       sys.P.ProtocolName(),
		Workload:       m.cfg.Workload,
		Network:        m.net.Name(),
		Procs:          sys.P.Nodes,
		TrafficBytes:   sys.Traffic.TotalBytes(),
		TrafficMsgs:    sys.Traffic.TotalMsgs(),
		UpdateBytes:    sys.Traffic.Bytes[stats.UpdateMsg],
		DataBytes:      sys.Traffic.Bytes[stats.DataMsg],
		MissLatencyP50: sys.MissLatency.Quantile(50),
		MissLatencyP95: sys.MissLatency.Quantile(95),
		MissLatencyP99: sys.MissLatency.Quantile(99),
		MissLatencyMax: sys.MissLatency.Max(),
		TotalPclocks:   tot,
		Resources:      make([]ResourceUtil, 0, 2*len(sys.Nodes)),
		Queue:          m.eng.QueueStats(),
	}
	for _, n := range sys.Nodes {
		for _, w := range []struct {
			name string
			res  *sim.Resource
		}{{"bus", n.Bus}, {"slc", n.Cache.SLCResource()}} {
			ru := ResourceUtil{
				Name:          w.name,
				Node:          n.ID,
				BusyPclocks:   int64(w.res.BusyTime()),
				WaitPclocks:   int64(w.res.WaitTime()),
				Uses:          w.res.Uses(),
				MaxQueueDepth: w.res.MaxQueueDepth(),
			}
			if tot > 0 {
				ru.Utilization = float64(ru.BusyPclocks) / float64(tot)
			}
			r.Resources = append(r.Resources, ru)
		}
	}
	var lastDone sim.Time
	for _, p := range m.procs {
		lastDone = max(lastDone, p.DoneTime())
		r.Busy += p.Stats.Busy
		r.ReadStall += p.Stats.ReadStall
		r.WriteStall += p.Stats.WriteStall
		r.AcquireStall += p.Stats.AcquireStall + p.Stats.BarrierStall
		r.BarrierStall += p.Stats.BarrierStall
		r.ReleaseStall += p.Stats.ReleaseStall
		r.Reads += p.Stats.Reads
		r.Writes += p.Stats.Writes
	}
	r.ExecTime = int64(lastDone - m.statsStart)
	var missLat int64
	var missCount uint64
	for _, n := range sys.Nodes {
		c := n.Cache
		r.ColdMisses += c.Misses[stats.Cold]
		r.CoherenceMisses += c.Misses[stats.Coherence]
		r.ReplacementMisses += c.Misses[stats.Replacement]
		r.WriteCacheHits += c.CStats.WCHits
		missLat += c.CStats.ReadMissLatency
		missCount += c.CStats.ReadMissCount
		if pf := c.Prefetcher(); pf != nil {
			r.PrefetchesIssued += pf.Stats.Issued
			r.PrefetchesUseful += pf.Stats.Useful
			r.PrefetchPartHits += pf.Stats.PartHits
			r.PrefetchesNacked += pf.Stats.Nacked
		}
		h := n.Home
		r.OwnershipRequests += h.OwnReqs
		r.UpdateRequests += h.UpdateReqs
		r.MigDetections += h.MigratoryDetections
		r.MigReverts += h.MigratoryReverts
		r.ExclSupplies += h.ExclusiveSupplies
		r.PointerOverflows += h.PointerOverflows
		r.BroadcastInvs += h.BroadcastInvalidations
	}
	if missCount > 0 {
		r.AvgReadMissLatency = float64(missLat) / float64(missCount)
	}
	if tele := m.cfg.Telemetry; tele != nil {
		r.MissPhasePclocks = tele.PhaseTotals(telemetry.SpanRead)
		r.DroppedSpans = tele.DroppedSpans()
	}
	r.Sharing = m.cfg.Sharing.Report()
	return r
}
