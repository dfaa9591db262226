package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"text/tabwriter"

	"ccsim/internal/memsys"
	"ccsim/internal/stats"
)

// SharingClass labels a block's observed access pattern. The taxonomy is the
// one the paper's analysis implies: each protocol extension pays off on a
// specific pattern (prefetch on read-only/read-mostly streams, the migratory
// optimization on migratory blocks, competitive update on producer-consumer
// ones), so attributing misses and traffic per class explains *why* a
// combination wins.
type SharingClass int

const (
	// ShareReadOnly blocks were never written inside the measured section.
	ShareReadOnly SharingClass = iota
	// ShareReadMostly blocks are written rarely relative to reads and read
	// by several nodes (e.g. slowly-updated global state).
	ShareReadMostly
	// ShareMigratory blocks pass read-modify-write ownership from node to
	// node (the access stream shows writer changes that each follow the new
	// writer's own read).
	ShareMigratory
	// ShareProducerConsumer blocks have a single writer repeatedly feeding
	// one or more distinct reader nodes.
	ShareProducerConsumer
	// ShareFalseSharing blocks have several writers that touch disjoint
	// word sets — coherence activity without data communication.
	ShareFalseSharing
	// ShareIrregular is everything else, including thread-private
	// read-write blocks and streams too mixed to name.
	ShareIrregular

	// NumSharingClasses sizes per-class arrays.
	NumSharingClasses
)

var sharingClassNames = [NumSharingClasses]string{
	"read-only", "read-mostly", "migratory", "producer-consumer",
	"false-sharing", "irregular",
}

// String returns the class's hyphenated name ("producer-consumer", ...).
func (c SharingClass) String() string {
	if c < 0 || c >= NumSharingClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return sharingClassNames[c]
}

// Classification thresholds. Tuned against the litmus sharing shapes; the
// exact values matter less than the ordering of the rules (see classify).
const (
	// readMostlyRatio: reads per write at or above which a multi-reader
	// block counts as read-mostly.
	readMostlyRatio = 16
	// migratoryMinChanges: writer changes before a block can be called
	// migratory (a single handoff is just data passing once).
	migratoryMinChanges = 2
)

// blockShare is the per-block classifier state: node sets, per-word writer
// sets, and the handoff detector. Nodes beyond 63 clamp into bit 63 — the
// classifier only needs "one node or several", not exact identity. The
// zero value is a block never observed (seen is false).
type blockShare struct {
	seen  bool
	class SharingClass

	reads, writes uint64
	misses        uint64
	invals        uint64
	updates       uint64
	msgs          uint64
	ctlBytes      uint64
	dataBytes     uint64
	updateBytes   uint64
	readers       uint64                       // node bitmask
	writers       uint64                       // node bitmask
	wordWriters   [memsys.WordsPerBlock]uint64 // per-word writer bitmasks
	overlap       bool                         // two writers share a word
	writerChanges uint64                       // writes by a node other than the previous writer
	handoffs      uint64                       // writer changes preceded by the new writer's own read
	lastWriter    int16
	lastTouchNode int16
	lastTouchRead bool
}

func nodeBit(n int) uint64 {
	if n > 63 {
		n = 63
	}
	return 1 << uint(n)
}

// classify names the block from its accumulated state. Rule order matters:
// false sharing (several writers, disjoint words) is checked before
// migratory so alternating disjoint-word writers don't masquerade as
// ownership handoffs; migratory before read-mostly so a
// read-modify-write chain with a long read tail stays migratory.
func (bs *blockShare) classify() SharingClass {
	if bs.writes == 0 {
		return ShareReadOnly
	}
	nw := bits.OnesCount64(bs.writers)
	nr := bits.OnesCount64(bs.readers)
	switch {
	case nw >= 2 && !bs.overlap:
		return ShareFalseSharing
	case bs.writerChanges >= migratoryMinChanges && 2*bs.handoffs >= bs.writerChanges:
		return ShareMigratory
	case bs.reads >= readMostlyRatio*bs.writes && nr >= 2:
		return ShareReadMostly
	case nw == 1 && bs.readers&^bs.writers != 0 && bs.writes >= 2:
		return ShareProducerConsumer
	}
	return ShareIrregular
}

// ClassTotals accumulates one class's attribution: how many blocks currently
// carry the label and the events their access streams generated.
type ClassTotals struct {
	Blocks        uint64
	Reads         uint64
	Writes        uint64
	Misses        uint64
	Invalidations uint64
	Updates       uint64
	Msgs          uint64
	CtlBytes      uint64
	DataBytes     uint64
	UpdateBytes   uint64
}

func (t *ClassTotals) add(bs *blockShare) {
	t.Blocks++
	t.Reads += bs.reads
	t.Writes += bs.writes
	t.Misses += bs.misses
	t.Invalidations += bs.invals
	t.Updates += bs.updates
	t.Msgs += bs.msgs
	t.CtlBytes += bs.ctlBytes
	t.DataBytes += bs.dataBytes
	t.UpdateBytes += bs.updateBytes
}

func (t *ClassTotals) sub(bs *blockShare) {
	t.Blocks--
	t.Reads -= bs.reads
	t.Writes -= bs.writes
	t.Misses -= bs.misses
	t.Invalidations -= bs.invals
	t.Updates -= bs.updates
	t.Msgs -= bs.msgs
	t.CtlBytes -= bs.ctlBytes
	t.DataBytes -= bs.dataBytes
	t.UpdateBytes -= bs.updateBytes
}

func (t *ClassTotals) merge(o *ClassTotals) {
	t.Blocks += o.Blocks
	t.Reads += o.Reads
	t.Writes += o.Writes
	t.Misses += o.Misses
	t.Invalidations += o.Invalidations
	t.Updates += o.Updates
	t.Msgs += o.Msgs
	t.CtlBytes += o.CtlBytes
	t.DataBytes += o.DataBytes
	t.UpdateBytes += o.UpdateBytes
}

// SharingTotals is the per-class aggregate: event counters plus the
// miss-latency histogram of each class. The counters follow blocks as they
// reclassify (a block's whole accumulated history moves to its new class);
// latency samples are attributed at miss time and stay where they landed,
// since histograms can't be split retroactively.
type SharingTotals struct {
	Classes [NumSharingClasses]ClassTotals
	Latency [NumSharingClasses]stats.Hist
}

// Merge accumulates another run's totals, for sweep-wide aggregation.
func (t *SharingTotals) Merge(o *SharingTotals) {
	if o == nil {
		return
	}
	for i := range t.Classes {
		t.Classes[i].merge(&o.Classes[i])
		t.Latency[i].Merge(o.Latency[i])
	}
}

// Sharing is the online per-block sharing-pattern analyzer. Hooked into the
// cache controllers and the network with the same nil-pointer side-channel
// pattern the tracer and checker use: a nil *Sharing is a no-op on every
// method, and the instrumented paths test one pointer when it's off.
// Hooks fire only inside the measured section (statsOn), matching the
// SPLASH methodology everywhere else in the simulator. Not safe for
// concurrent use within one run (the engine is single-threaded); sweeps
// attach a fresh analyzer per run and Merge the totals. Per-block state
// lives in a block table, by value.
type Sharing struct {
	blocks memsys.Table[blockShare]
	tot    SharingTotals
}

// NewSharing returns an empty analyzer ready to attach to a run.
func NewSharing() *Sharing { return &Sharing{} }

func (s *Sharing) get(b uint64) *blockShare {
	bs := s.blocks.At(memsys.Block(b))
	if !bs.seen {
		*bs = blockShare{seen: true, class: ShareReadOnly, lastWriter: -1, lastTouchNode: -1}
		s.tot.Classes[ShareReadOnly].Blocks++
	}
	return bs
}

// settle re-derives the block's class after a state change, migrating its
// accumulated counters between class totals when the label flips. mutate
// runs with the block's contribution removed from the totals, so every
// counter bump inside it is automatically reflected.
func (s *Sharing) settle(bs *blockShare, mutate func()) {
	s.tot.Classes[bs.class].sub(bs)
	mutate()
	bs.class = bs.classify()
	s.tot.Classes[bs.class].add(bs)
}

// OnRead records a processor read (FLC hits included — classification needs
// the full access stream, not just the miss stream).
func (s *Sharing) OnRead(node int, b uint64) {
	if s == nil {
		return
	}
	bs := s.get(b)
	s.settle(bs, func() {
		bs.reads++
		bs.readers |= nodeBit(node)
		bs.lastTouchNode = clampNode(node)
		bs.lastTouchRead = true
	})
}

// OnWrite records a processor write of one word (at first-level write-buffer
// accept time, so it is exactly once per program-order write under every
// protocol, write-cache combining included).
func (s *Sharing) OnWrite(node int, b uint64, word int) {
	if s == nil {
		return
	}
	bs := s.get(b)
	s.settle(bs, func() {
		bs.writes++
		bit := nodeBit(node)
		bs.writers |= bit
		if word >= 0 && word < memsys.WordsPerBlock {
			if bs.wordWriters[word]&^bit != 0 {
				bs.overlap = true
			}
			bs.wordWriters[word] |= bit
		}
		cn := clampNode(node)
		if bs.lastWriter >= 0 && bs.lastWriter != cn {
			bs.writerChanges++
			if bs.lastTouchRead && bs.lastTouchNode == cn {
				bs.handoffs++
			}
		}
		bs.lastWriter = cn
		bs.lastTouchNode = cn
		bs.lastTouchRead = false
	})
}

func clampNode(n int) int16 {
	if n > 63 {
		n = 63
	}
	return int16(n)
}

// OnMiss records an SLC demand read miss on the block.
func (s *Sharing) OnMiss(node int, b uint64) {
	if s == nil {
		return
	}
	bs := s.get(b)
	s.settle(bs, func() { bs.misses++ })
	_ = node
}

// OnMissLatency attributes one demand-miss service time (pclocks) to the
// block's class at completion time.
func (s *Sharing) OnMissLatency(b uint64, lat int64) {
	if s == nil {
		return
	}
	bs := s.get(b)
	s.tot.Latency[bs.class].Add(lat)
}

// OnInvalidate records a coherence invalidation of the block's SLC copy
// (replacement victims are not counted).
func (s *Sharing) OnInvalidate(node int, b uint64) {
	if s == nil {
		return
	}
	bs := s.get(b)
	s.settle(bs, func() { bs.invals++ })
	_ = node
}

// OnUpdate records a write-update delivery to the block's copy (competitive
// update protocol).
func (s *Sharing) OnUpdate(node int, b uint64) {
	if s == nil {
		return
	}
	bs := s.get(b)
	s.settle(bs, func() { bs.updates++ })
	_ = node
}

// OnTraffic attributes one network message to the block's class by message
// kind. Sync fabric messages carry no block and are skipped.
func (s *Sharing) OnTraffic(b uint64, class stats.MsgClass, bytes int) {
	if s == nil || class == stats.SyncMsg {
		return
	}
	bs := s.get(b)
	s.settle(bs, func() {
		bs.msgs++
		switch class {
		case stats.CtlMsg:
			bs.ctlBytes += uint64(bytes)
		case stats.DataMsg:
			bs.dataBytes += uint64(bytes)
		case stats.UpdateMsg:
			bs.updateBytes += uint64(bytes)
		}
	})
}

// ClassOf reports the block's current label; ok is false if the block was
// never observed.
func (s *Sharing) ClassOf(b uint64) (SharingClass, bool) {
	if s == nil {
		return 0, false
	}
	bs := s.blocks.Get(memsys.Block(b))
	if bs == nil || !bs.seen {
		return 0, false
	}
	return bs.class, true
}

// ClassBlocks returns how many blocks currently carry the class — shaped for
// WatchGauge, so the timeline export grows one counter track per class.
func (s *Sharing) ClassBlocks(c SharingClass) int64 {
	if s == nil || c < 0 || c >= NumSharingClasses {
		return 0
	}
	return int64(s.tot.Classes[c].Blocks)
}

// ClassMisses returns the class's accumulated demand misses (WatchGauge
// shape, same as ClassBlocks).
func (s *Sharing) ClassMisses(c SharingClass) int64 {
	if s == nil || c < 0 || c >= NumSharingClasses {
		return 0
	}
	return int64(s.tot.Classes[c].Misses)
}

// Totals returns a copy of the per-class aggregate (nil receiver → nil).
func (s *Sharing) Totals() *SharingTotals {
	if s == nil {
		return nil
	}
	t := s.tot
	return &t
}

// SharingClassStats is one class's row in a report.
type SharingClassStats struct {
	Class         string
	Blocks        uint64
	Reads         uint64
	Writes        uint64
	Misses        uint64
	Invalidations uint64
	Updates       uint64
	Msgs          uint64
	CtlBytes      uint64
	DataBytes     uint64
	UpdateBytes   uint64

	// Miss-latency distribution points in pclocks (bucketed upper bounds;
	// Max is exact). Zero when the class took no misses.
	MissLatencyP50 int64
	MissLatencyP95 int64
	MissLatencyP99 int64
	MissLatencyMax int64
}

// SharingReport is the per-class summary exported in Result.Sharing and in
// a sweep's aggregate (`experiments -sharing`). Classes appear in fixed
// taxonomy order; classes with no blocks are omitted.
type SharingReport struct {
	Blocks  uint64 // distinct blocks observed
	Classes []SharingClassStats
}

// Report renders the totals (nil or empty → nil, keeping Result JSON and
// the golden baselines byte-identical when analytics are off).
func (t *SharingTotals) Report() *SharingReport {
	if t == nil {
		return nil
	}
	r := &SharingReport{}
	for c := SharingClass(0); c < NumSharingClasses; c++ {
		ct := &t.Classes[c]
		if ct.Blocks == 0 && t.Latency[c].Count() == 0 {
			continue
		}
		r.Blocks += ct.Blocks
		h := &t.Latency[c]
		r.Classes = append(r.Classes, SharingClassStats{
			Class:         c.String(),
			Blocks:        ct.Blocks,
			Reads:         ct.Reads,
			Writes:        ct.Writes,
			Misses:        ct.Misses,
			Invalidations: ct.Invalidations,
			Updates:       ct.Updates,
			Msgs:          ct.Msgs,
			CtlBytes:      ct.CtlBytes,
			DataBytes:     ct.DataBytes,
			UpdateBytes:   ct.UpdateBytes,

			MissLatencyP50: h.Quantile(50),
			MissLatencyP95: h.Quantile(95),
			MissLatencyP99: h.Quantile(99),
			MissLatencyMax: h.Max(),
		})
	}
	if r.Blocks == 0 {
		return nil
	}
	return r
}

// Report summarizes the analyzer's current state (nil-safe).
func (s *Sharing) Report() *SharingReport {
	if s == nil {
		return nil
	}
	return s.tot.Report()
}

// Fprint renders the report as an aligned text table (nil receiver prints
// nothing), sorted by block count within the fixed class order already in
// Classes — callers route this to stderr or a file, never stdout. It
// returns the error, if any, from writing the table to w.
func (r *SharingReport) Fprint(w io.Writer) error {
	if r == nil {
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "sharing patterns (%d blocks)\n", r.Blocks)
	fmt.Fprintln(tw, "class\tblocks\treads\twrites\tmisses\tinvals\tupdates\tctlB\tdataB\tupdB\tmissP50\tmissP95\tmissMax")
	rows := make([]SharingClassStats, len(r.Classes))
	copy(rows, r.Classes)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Blocks > rows[j].Blocks })
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			c.Class, c.Blocks, c.Reads, c.Writes, c.Misses, c.Invalidations,
			c.Updates, c.CtlBytes, c.DataBytes, c.UpdateBytes,
			c.MissLatencyP50, c.MissLatencyP95, c.MissLatencyMax)
	}
	return tw.Flush()
}
