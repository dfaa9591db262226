package telemetry

import (
	"math"

	"ccsim/internal/sim"
)

// resourceWatch tracks one sim.Resource between samples.
type resourceWatch struct {
	name string
	node int
	res  *sim.Resource

	lastBusy sim.Time
}

// gaugeWatch samples an arbitrary monotone or instantaneous counter.
type gaugeWatch struct {
	name string
	node int
	fn   func() int64
}

// sampleRec heads one snapshot's values in Collector.values: for each
// watched resource its utilization's float64 bits and its queue depth, then
// each gauge.
type sampleRec struct {
	at              int64
	watches, gauges int32
}

// WatchResource registers a resource for periodic utilization sampling.
// node is the owning node's ID, or negative for machine-wide resources.
func (c *Collector) WatchResource(name string, node int, r *sim.Resource) {
	if c == nil || r == nil {
		return
	}
	c.watches = append(c.watches, &resourceWatch{name: name, node: node, res: r})
}

// WatchGauge registers a counter sampled alongside the resources.
func (c *Collector) WatchGauge(name string, node int, fn func() int64) {
	if c == nil || fn == nil {
		return
	}
	c.gauges = append(c.gauges, gaugeWatch{name: name, node: node, fn: fn})
}

// StartSampler schedules the first snapshot Options.SampleEvery pclocks from
// now. Each tick reschedules itself only while the engine still has pending
// events, so the sampler drains with the simulation instead of keeping it
// alive — an engine with no work at all (a zero-duration run) gets no tick
// and no samples. Sampling reads counters only; it never changes timing.
// Calling StartSampler again on a reused engine resumes cleanly: the
// interval baseline resets to the engine's current time, so the first new
// sample measures only the new run.
func (c *Collector) StartSampler(eng *sim.Engine) {
	if c == nil || (len(c.watches) == 0 && len(c.gauges) == 0) {
		return
	}
	if eng.Pending() == 0 {
		return
	}
	c.eng = eng
	c.lastAt = eng.Now()
	eng.AfterCall(c.opts.SampleEvery, sampleTick, c)
}

// sampleTick is the sampler's event: it snapshots the *Collector it is
// given and reschedules itself while the engine has other work.
func sampleTick(a any) {
	c := a.(*Collector)
	c.sample(c.eng.Now())
	if c.eng.Pending() > 0 && c.samples.n < c.opts.MaxSamples {
		c.eng.AfterCall(c.opts.SampleEvery, sampleTick, c)
	}
}

func (c *Collector) sample(now sim.Time) {
	dt := now - c.lastAt
	c.lastAt = now
	*c.samples.add() = sampleRec{at: int64(now), watches: int32(len(c.watches)), gauges: int32(len(c.gauges))}
	for _, w := range c.watches {
		// BusyTime is booked wholesale at reservation time, but queued
		// reservations run contiguously up to FreeAt, so the portion already
		// realized by `now` is exact: total minus what still lies ahead.
		busy := w.res.BusyTime()
		if f := w.res.FreeAt(); f > now {
			busy -= f - now
		}
		util := 0.0
		if dt > 0 {
			util = float64(busy-w.lastBusy) / float64(dt)
		}
		*c.values.add() = int64(math.Float64bits(util))
		*c.values.add() = int64(w.res.QueueDepth())
		w.lastBusy = busy
	}
	for _, g := range c.gauges {
		*c.values.add() = g.fn()
	}
}
