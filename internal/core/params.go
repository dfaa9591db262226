// Package core implements the paper's contribution: a full-map,
// directory-based write-invalidate cache-coherence protocol (BASIC) for a
// CC-NUMA multiprocessor, extended with adaptive sequential prefetching (P),
// the migratory-sharing optimization (M), and a competitive-update mechanism
// with write caches (CW), in every combination, under sequential or release
// consistency.
//
// The package contains the home (directory) controller, the second-level
// cache controller with its lockup-free pending-transaction table and write
// buffers, the adaptive prefetcher, and the node/system assembly that wires
// them to the interconnect and the local buses.
package core

import (
	"fmt"
	"math"

	"ccsim/internal/sim"
)

// Timing holds the latency parameters of the baseline architecture
// (paper §4), in pclocks (1 pclock = 10 ns at 100 MHz).
type Timing struct {
	FLCAccess  sim.Time // first-level cache access
	FLCFill    sim.Time // first-level cache block fill
	SLCAccess  sim.Time // second-level cache access latency (two SRAM cycles)
	SLCCycle   sim.Time // second-level cache occupancy per operation (30 ns SRAM cycle)
	MemAccess  sim.Time // interleaved local memory (90 ns)
	BusCtl     sim.Time // local bus occupancy, control message
	BusData    sim.Time // local bus occupancy, block-carrying message
	NetLatency sim.Time // uniform network node-to-node latency
}

// DefaultTiming returns the paper's parameters. They compose to the quoted
// FLC / SLC / local-memory access times of 1, 6 and 30 pclocks:
// a local SLC miss costs SLCAccess + BusCtl + MemAccess + BusData +
// SLCAccess(fill) = 6+3+9+6+6 = 30.
func DefaultTiming() Timing {
	return Timing{
		FLCAccess:  1,
		FLCFill:    3,
		SLCAccess:  6,
		SLCCycle:   3,
		MemAccess:  9,
		BusCtl:     3,
		BusData:    6,
		NetLatency: 54,
	}
}

// Params configures one simulated machine.
type Params struct {
	Nodes int // processor count (paper: 16)

	// Caches and buffers.
	FLCSets     int // FLC frames (paper: 4 KB / 32 B = 128)
	SLCSets     int // SLC frames; 0 = infinite (paper default)
	SLCWays     int // SLC associativity (1 = the paper's direct-mapped; 0 means 1)
	FLWBEntries int // first-level write buffer (RC: 8, SC: 1)
	SLWBEntries int // second-level write buffer (RC: 16, SC: 1)

	// Consistency model.
	SC bool // true: sequential consistency; false: release consistency (RCpc)

	// Protocol extensions.
	P  bool // adaptive sequential prefetching
	M  bool // migratory-sharing optimization
	CW bool // competitive update + write cache

	// Extension tuning (paper §3 values by default).
	PrefetchMaxK     int // cap on the degree of prefetching
	PrefetchHighMark int // useful count (of 16) above which K grows
	PrefetchLowMark  int // useful count (of 16) below which K shrinks
	CWThreshold      int // competitive threshold (1 with write caches)
	// PrefetchNackDirty makes the home reject prefetches that find the
	// block dirty in another cache instead of fetching it four-hop (a
	// DASH-style design alternative, off by default; kept as an ablation).
	PrefetchNackDirty bool

	// VerifyData plumbs per-word version numbers through every data path
	// (replies, forwards, writebacks, updates, write caches) and checks on
	// every processor read that the observed version never moves backward —
	// the data-value invariant of coherence. For tests and debugging; adds
	// simulation overhead.
	VerifyData bool

	// Mutate arms a one-shot protocol mutation for checker validation: the
	// first transition matching the named kind misbehaves once, and the
	// live coherence checker (or the data-value invariant) must catch it.
	// Known kinds: "wb-drop-word" (a writeback's merge loses its lowest
	// written word) and "skip-sharer" (the home omits a read requester from
	// the presence vector). Empty disables mutation.
	Mutate string

	// DirPointers selects a limited-pointer directory (Dir_iB) with that
	// many sharer pointers per memory line instead of the paper's full
	// presence-flag map (0, the default). When a block's sharer count
	// overflows the pointers, the entry degrades to broadcast: coherence
	// actions go to every node and all must acknowledge — the classic
	// storage/traffic trade-off (Agarwal et al., ISCA 1988).
	DirPointers      int
	WriteCacheBlocks int // write cache size in blocks (4)

	Timing Timing
}

// DefaultParams returns the paper's baseline machine under release
// consistency with no extensions (BASIC).
func DefaultParams() Params {
	return Params{
		Nodes:            16,
		FLCSets:          128,
		SLCSets:          0,
		FLWBEntries:      8,
		SLWBEntries:      16,
		PrefetchMaxK:     8,
		PrefetchHighMark: 12,
		PrefetchLowMark:  8,
		CWThreshold:      1,
		WriteCacheBlocks: 4,
		Timing:           DefaultTiming(),
	}
}

// Validate reports configuration errors.
func (p *Params) Validate() error {
	switch {
	case p.Nodes < 1:
		return fmt.Errorf("core: Nodes = %d, need >= 1", p.Nodes)
	case p.Nodes > 64:
		return fmt.Errorf("core: Nodes = %d, need <= 64 (one bit per node in the directory's 64-bit presence vector)", p.Nodes)
	case p.FLCSets < 1:
		return fmt.Errorf("core: FLCSets = %d, need >= 1", p.FLCSets)
	case p.SLCSets < 0:
		return fmt.Errorf("core: SLCSets = %d, need >= 0", p.SLCSets)
	case p.SLCWays < 0 || (p.SLCWays > 1 && p.SLCSets > 0 && p.SLCSets%p.SLCWays != 0):
		return fmt.Errorf("core: SLCSets = %d not divisible by SLCWays = %d", p.SLCSets, p.SLCWays)
	case p.FLWBEntries < 1 || p.SLWBEntries < 1:
		return fmt.Errorf("core: write buffers need >= 1 entry")
	case p.CW && p.SC:
		return fmt.Errorf("core: the competitive-update mechanism is not feasible under sequential consistency (paper §5.2)")
	case p.CW && (p.CWThreshold < 1 || p.WriteCacheBlocks < 1):
		return fmt.Errorf("core: CW needs threshold >= 1 and a nonempty write cache")
	case p.CWThreshold > math.MaxInt32:
		// An SLC line holds its competitive counter in 32 bits.
		return fmt.Errorf("core: CWThreshold = %d, need <= %d", p.CWThreshold, math.MaxInt32)
	case p.P && (p.PrefetchMaxK < 1 || p.PrefetchHighMark <= p.PrefetchLowMark):
		return fmt.Errorf("core: bad prefetch tuning")
	case p.DirPointers < 0:
		return fmt.Errorf("core: DirPointers = %d, need >= 0", p.DirPointers)
	}
	switch p.Mutate {
	case "", "wb-drop-word", "skip-sharer":
	default:
		return fmt.Errorf("core: unknown protocol mutation %q", p.Mutate)
	}
	return nil
}

// ProtocolName returns the paper's name for the configured extension
// combination: BASIC, P, M, CW, P+CW, P+M, CW+M, or P+CW+M (with a -SC
// suffix under sequential consistency).
func (p *Params) ProtocolName() string {
	name := ""
	add := func(s string) {
		if name != "" {
			name += "+"
		}
		name += s
	}
	if p.P {
		add("P")
	}
	if p.CW {
		add("CW")
	}
	if p.M {
		add("M")
	}
	if name == "" {
		name = "BASIC"
	}
	if p.SC {
		name += "-SC"
	}
	return name
}

// HardwareCost describes the extra hardware an extension combination needs
// beyond BASIC, reproducing the paper's Table 1.
type HardwareCost struct {
	Protocol             string
	SLCStateBitsPerLine  int // state bits per SLC line
	ExtraCacheMechanisms string
	SLWBNote             string
	MemoryBitsPerLine    string // state bits per memory line
}

// CostTable returns the paper's Table 1 rows for BASIC and each extension.
func CostTable(nodes int) []HardwareCost {
	return []HardwareCost{
		{
			Protocol:             "BASIC",
			SLCStateBitsPerLine:  2,
			ExtraCacheMechanisms: "none",
			SLWBNote:             "SC: a single entry; RC: several entries",
			MemoryBitsPerLine:    fmt.Sprintf("3 state bits plus %d presence bits", nodes),
		},
		{
			Protocol:             "P",
			SLCStateBitsPerLine:  2, // two extra bits per line (prefetch + zero)
			ExtraCacheMechanisms: "3 modulo-16 counters (4 bits) per cache",
			SLWBNote:             "prefetch requests are buffered in the SLWB",
			MemoryBitsPerLine:    "no extra state",
		},
		{
			Protocol:             "M",
			SLCStateBitsPerLine:  1, // one extra state
			ExtraCacheMechanisms: "none",
			SLWBNote:             "none",
			MemoryBitsPerLine:    fmt.Sprintf("1 state bit plus a pointer (log2 %d = %d bits)", nodes, log2(nodes)),
		},
		{
			Protocol:             "CW",
			SLCStateBitsPerLine:  1, // 1-bit counter per line
			ExtraCacheMechanisms: "write cache with four blocks",
			SLWBNote:             "each entry holds a block",
			MemoryBitsPerLine:    "no extra state",
		},
	}
}

func log2(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}
