package ccsim

import (
	"fmt"

	"ccsim/internal/machine"
	"ccsim/internal/memsys"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
	"ccsim/internal/telemetry"
)

// QueueStats is the event engine's internal scheduling profile — wheel vs
// overflow routing counts, migrations, cohort-size histogram, and depth
// high-water marks. See sim.QueueStats for field documentation.
type QueueStats = sim.QueueStats

func memAddr(a uint64) memsys.Addr { return memsys.Addr(a) }

// ResourceUtil reports one contended resource's occupancy over the run.
type ResourceUtil struct {
	Name          string  // "bus" or "slc"
	Node          int     // owning node
	Utilization   float64 // busy pclocks / TotalPclocks
	BusyPclocks   int64
	WaitPclocks   int64 // cumulative time requests queued for the resource
	Uses          uint64
	MaxQueueDepth int // peak simultaneous reservations
}

func convertResources(r *machine.Result) []ResourceUtil {
	out := make([]ResourceUtil, 0, len(r.Resources))
	for _, u := range r.Resources {
		ru := ResourceUtil{
			Name:          u.Name,
			Node:          u.Node,
			BusyPclocks:   u.Busy,
			WaitPclocks:   u.Wait,
			Uses:          u.Uses,
			MaxQueueDepth: u.MaxQueueDepth,
		}
		if r.TotalPclocks > 0 {
			ru.Utilization = float64(u.Busy) / float64(r.TotalPclocks)
		}
		out = append(out, ru)
	}
	return out
}

func missPhases(cfg Config) map[string]int64 {
	if cfg.Telemetry == nil {
		return nil
	}
	return cfg.Telemetry.PhaseTotals(telemetry.SpanRead)
}

// Result carries everything a run measures, in the units the paper
// reports.
type Result struct {
	Protocol string // BASIC, P, CW, M, P+CW, ... (-SC under SC)
	Workload string
	Network  string
	Procs    int

	// ExecTime is the measured parallel-section duration in pclocks
	// (1 pclock = 10 ns).
	ExecTime int64

	// Execution-time decomposition, summed over processors (divide by
	// Procs for the per-processor averages the figures plot).
	Busy         int64
	ReadStall    int64
	WriteStall   int64
	AcquireStall int64 // lock waits plus barrier waits (as the paper reports)
	BarrierStall int64 // the barrier component of AcquireStall, separately
	ReleaseStall int64

	// Reference counts (measured section only).
	Reads  uint64
	Writes uint64

	// SLC demand-miss components.
	ColdMisses        uint64
	CoherenceMisses   uint64
	ReplacementMisses uint64

	// Network traffic in bytes (messages that actually crossed the
	// network; local bus transactions excluded).
	TrafficBytes uint64
	TrafficMsgs  uint64
	UpdateBytes  uint64 // competitive-update component
	DataBytes    uint64

	// Mean demand read-miss service time in pclocks (the paper quotes
	// MP3D's dropping 41% under CW).
	AvgReadMissLatency float64
	// MissLatencyP50/P95/P99 are distribution points of the same (bucketed
	// upper bounds): contention shows in the tail long before the mean.
	// MissLatencyMax is exact.
	MissLatencyP50 int64
	MissLatencyP95 int64
	MissLatencyP99 int64
	MissLatencyMax int64

	// TotalPclocks is the full run duration including initialization — the
	// denominator of each ResourceUtil.Utilization.
	TotalPclocks int64

	// Resources reports lifetime occupancy of every node's bus and SLC.
	Resources []ResourceUtil

	// MissPhasePclocks decomposes sampled demand-miss spans by protocol
	// phase (request transit, directory wait, memory access, owner forward,
	// reply transit, FLC fill), summed over spans. Nil unless the run had a
	// Telemetry collector attached.
	MissPhasePclocks map[string]int64 `json:",omitempty"`

	// DroppedSpans counts telemetry spans discarded by the collector's
	// MaxSpans cap. Nonzero means MissPhasePclocks and exported timelines
	// undercount transactions; raise TelemetryOptions.MaxSpans to capture
	// everything. Zero (and omitted from JSON) when telemetry was off or
	// nothing overflowed.
	DroppedSpans uint64 `json:",omitempty"`

	// Sharing is the per-class sharing-pattern summary: block counts, event
	// attribution and miss-latency distribution for each observed access
	// pattern. Nil unless the run had an analyzer attached (Config.Sharing).
	Sharing *SharingReport `json:",omitempty"`

	// Extension activity.
	PrefetchesIssued  uint64
	PrefetchesUseful  uint64
	PrefetchPartHits  uint64
	PrefetchesNacked  uint64
	OwnershipRequests uint64
	UpdateRequests    uint64
	MigDetections     uint64
	MigReverts        uint64
	ExclSupplies      uint64
	WriteCacheHits    uint64
	PointerOverflows  uint64 // limited-pointer directory overflow events
	BroadcastInvs     uint64 // ownership grants that broadcast invalidations

	// Queue is the event engine's queue-internals profile for the run:
	// always-on counters the experiment scheduler aggregates across a
	// sweep (exp.SchedStats.Engine).
	Queue QueueStats
}

func convertResult(cfg Config, r *machine.Result) *Result {
	return &Result{
		Protocol:           r.Protocol,
		Workload:           cfg.Workload,
		Network:            r.Network,
		Procs:              r.Nodes,
		ExecTime:           r.ExecTime,
		Busy:               r.Busy,
		ReadStall:          r.ReadStall,
		WriteStall:         r.WriteStall,
		AcquireStall:       r.AcquireStall + r.BarrierStall,
		BarrierStall:       r.BarrierStall,
		ReleaseStall:       r.ReleaseStall,
		Reads:              r.Reads,
		Writes:             r.Writes,
		ColdMisses:         r.Misses[stats.Cold],
		CoherenceMisses:    r.Misses[stats.Coherence],
		ReplacementMisses:  r.Misses[stats.Replacement],
		TrafficBytes:       r.Traffic.TotalBytes(),
		TrafficMsgs:        r.Traffic.TotalMsgs(),
		UpdateBytes:        r.Traffic.Bytes[stats.UpdateMsg],
		DataBytes:          r.Traffic.Bytes[stats.DataMsg],
		AvgReadMissLatency: r.AvgReadMissLatency(),
		MissLatencyP50:     r.MissLatency.Quantile(50),
		MissLatencyP95:     r.MissLatency.Quantile(95),
		MissLatencyP99:     r.MissLatency.Quantile(99),
		MissLatencyMax:     r.MissLatency.Max(),
		TotalPclocks:       r.TotalPclocks,
		Resources:          convertResources(r),
		MissPhasePclocks:   missPhases(cfg),
		DroppedSpans:       cfg.Telemetry.DroppedSpans(),
		Sharing:            cfg.Sharing.Report(),
		PrefetchesIssued:   r.Prefetch.Issued,
		PrefetchesUseful:   r.Prefetch.Useful,
		PrefetchPartHits:   r.Prefetch.PartHits,
		PrefetchesNacked:   r.Prefetch.Nacked,
		OwnershipRequests:  r.OwnReqs,
		UpdateRequests:     r.UpdateReqs,
		MigDetections:      r.MigDetections,
		MigReverts:         r.MigReverts,
		ExclSupplies:       r.ExclSupplies,
		WriteCacheHits:     r.Cache.WCHits,
		PointerOverflows:   r.PointerOverflows,
		BroadcastInvs:      r.BroadcastInvs,
		Queue:              r.Queue,
	}
}

// ColdMissRate returns the cold miss-rate component as a percentage of
// shared reads (the paper's Table 2 metric).
func (r *Result) ColdMissRate() float64 { return r.ratePct(r.ColdMisses) }

// CoherenceMissRate returns the coherence miss-rate component in percent.
func (r *Result) CoherenceMissRate() float64 { return r.ratePct(r.CoherenceMisses) }

// ReplacementMissRate returns the replacement miss-rate component in
// percent.
func (r *Result) ReplacementMissRate() float64 { return r.ratePct(r.ReplacementMisses) }

func (r *Result) ratePct(n uint64) float64 {
	if r.Reads == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.Reads)
}

// RelativeTo returns this run's execution time as a fraction of base's —
// the paper's "execution times relative to BASIC".
func (r *Result) RelativeTo(base *Result) float64 {
	if base.ExecTime == 0 {
		return 0
	}
	return float64(r.ExecTime) / float64(base.ExecTime)
}

// TrafficRelativeTo returns this run's network traffic normalized to
// base's (the paper's Figure 4 metric).
func (r *Result) TrafficRelativeTo(base *Result) float64 {
	if base.TrafficBytes == 0 {
		return 0
	}
	return float64(r.TrafficBytes) / float64(base.TrafficBytes)
}

// String summarizes the run on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: exec=%d busy=%d read=%d write=%d acq=%d rel=%d cold=%.2f%% coh=%.2f%% repl=%.2f%% traffic=%dB",
		r.Workload, r.Protocol, r.ExecTime,
		r.Busy, r.ReadStall, r.WriteStall, r.AcquireStall, r.ReleaseStall,
		r.ColdMissRate(), r.CoherenceMissRate(), r.ReplacementMissRate(),
		r.TrafficBytes)
}
