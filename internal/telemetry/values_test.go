package telemetry

import "math"

// The collector's stall, instant and snapshot records as values. Only
// tests read them back: WriteTimeline streams the records themselves.

// Stall is one interval a processor spent blocked on the memory system.
type Stall struct {
	Node  int
	Kind  string // read, write, acquire, barrier, release
	Start int64
	End   int64
}

// Instant is a point event on a node's timeline (directory transitions).
type Instant struct {
	Node  int
	Name  string
	Block uint64
	At    int64
}

// Sample is one sampler snapshot. Util and Depth are indexed like the
// collector's watches, Gauges like its gauges.
type Sample struct {
	At    int64
	Util  []float64 // busy fraction of each watched resource over the interval
	Depth []int     // instantaneous queue depth
	Gauge []int64
}

// Stalls returns the recorded processor stall intervals, built on each
// call.
func (c *Collector) Stalls() []Stall {
	if c == nil || c.stalls.n == 0 {
		return nil
	}
	out := make([]Stall, c.stalls.n)
	for i := range out {
		s := c.stalls.at(i)
		out[i] = Stall{Node: int(s.node), Kind: c.names[s.kind], Start: s.start, End: s.end}
	}
	return out
}

// Instants returns the recorded point events, built on each call.
func (c *Collector) Instants() []Instant {
	if c == nil || c.instants.n == 0 {
		return nil
	}
	out := make([]Instant, c.instants.n)
	for i := range out {
		in := c.instants.at(i)
		out[i] = Instant{Node: int(in.node), Name: c.names[in.name], Block: in.block, At: in.at}
	}
	return out
}

// Samples returns the snapshots taken so far, built on each call.
func (c *Collector) Samples() []Sample {
	if c == nil || c.samples.n == 0 {
		return nil
	}
	out := make([]Sample, c.samples.n)
	v := 0
	next := func() int64 {
		v++
		return *c.values.at(v - 1)
	}
	for i := range out {
		r := c.samples.at(i)
		s := Sample{
			At:    r.at,
			Util:  make([]float64, r.watches),
			Depth: make([]int, r.watches),
			Gauge: make([]int64, r.gauges),
		}
		for j := range s.Util {
			s.Util[j] = math.Float64frombits(uint64(next()))
			s.Depth[j] = int(next())
		}
		for j := range s.Gauge {
			s.Gauge[j] = next()
		}
		out[i] = s
	}
	return out
}
