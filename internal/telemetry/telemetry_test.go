package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"ccsim/internal/sim"
)

func TestSpanSegmentsSumToLatency(t *testing.T) {
	c := New(Options{})
	id := c.Begin(3, 42, SpanRead, 100)
	if id == 0 {
		t.Fatal("Begin returned 0 on a live collector")
	}
	c.Mark(id, PhaseRequest, 160)
	c.Mark(id, PhaseDirWait, 165)
	c.Mark(id, PhaseMemory, 174)
	c.Mark(id, PhaseReply, 234)
	c.End(id, 250)

	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Latency() != 150 {
		t.Fatalf("Latency = %d, want 150", s.Latency())
	}
	d := s.Durations()
	var sum int64
	for _, v := range d {
		sum += v
	}
	if sum != s.Latency() {
		t.Fatalf("phase durations sum to %d, latency is %d", sum, s.Latency())
	}
	if d[PhaseRequest] != 60 || d[PhaseDirWait] != 5 || d[PhaseMemory] != 9 ||
		d[PhaseReply] != 60 || d[PhaseFill] != 16 {
		t.Fatalf("durations = %v", d)
	}
	if s.Dominant() != PhaseRequest {
		// request and reply tie at 60; the earlier phase wins ties.
		t.Fatalf("Dominant = %v", s.Dominant())
	}
}

func TestRepeatedPhaseAccumulates(t *testing.T) {
	// A dirty-miss span visits memory twice (directory read, then the
	// post-forward write); the durations must accumulate.
	c := New(Options{})
	id := c.Begin(0, 7, SpanRead, 0)
	c.Mark(id, PhaseRequest, 60)
	c.Mark(id, PhaseMemory, 69)
	c.Mark(id, PhaseForward, 129)
	c.Mark(id, PhaseOwner, 191)
	c.Mark(id, PhaseMemory, 200)
	c.Mark(id, PhaseReply, 260)
	c.End(id, 270)
	d := c.Spans()[0].Durations()
	if d[PhaseMemory] != 18 {
		t.Fatalf("memory total = %d, want 18", d[PhaseMemory])
	}
	if c.Spans()[0].Dominant() != PhaseRequest && c.Spans()[0].Dominant() != PhaseForward {
		// 60-pclock transits dominate; exact winner is the first of the ties.
	}
}

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	id := c.Begin(0, 1, SpanRead, 0)
	if id != 0 {
		t.Fatal("nil collector issued a transaction ID")
	}
	c.Mark(id, PhaseRequest, 5)
	c.End(id, 10)
	c.StallInterval(0, "read", 0, 10)
	c.RecordInstant(0, "grant", 1, 5)
	c.WatchResource("bus", 0, nil)
	c.WatchGauge("g", 0, func() int64 { return 0 })
	if c.Spans() != nil || c.Stalls() != nil || c.Instants() != nil || c.Samples() != nil {
		t.Fatal("nil collector returned data")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id := c.Begin(1, 2, SpanOwnership, 3)
		c.Mark(id, PhaseMemory, 4)
		c.End(id, 5)
		c.StallInterval(1, "write", 3, 9)
	})
	if allocs != 0 {
		t.Fatalf("nil collector allocated %.1f per op", allocs)
	}
}

func TestSpanCap(t *testing.T) {
	c := New(Options{MaxSpans: 2})
	a := c.Begin(0, 1, SpanRead, 0)
	b := c.Begin(0, 2, SpanRead, 0)
	c.End(a, 10)
	c.End(b, 10)
	if id := c.Begin(0, 3, SpanRead, 20); id != 0 {
		t.Fatal("cap exceeded: Begin should return 0")
	}
	if c.DroppedSpans() != 1 {
		t.Fatalf("DroppedSpans = %d, want 1", c.DroppedSpans())
	}
}

func TestStallIntervals(t *testing.T) {
	c := New(Options{})
	c.StallInterval(2, "read", 10, 30)
	c.StallInterval(2, "read", 30, 30) // empty: dropped
	st := c.Stalls()
	if len(st) != 1 || st[0].End-st[0].Start != 20 || st[0].Kind != "read" {
		t.Fatalf("stalls = %+v", st)
	}
}

func TestSamplerTerminatesAndMeasures(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewResource(eng, "bus")
	c := New(Options{SampleEvery: 10})
	c.WatchResource("bus", 0, r)
	gauge := int64(7)
	c.WatchGauge("outstanding", -1, func() int64 { return gauge })

	// Occupy the bus fully for [0,20), then leave it idle until t=40.
	r.UseCall(20, func(any) {}, nil)
	eng.AtCall(40, func(any) {}, nil)
	c.StartSampler(eng)
	eng.Run()

	samples := c.Samples()
	// Ticks at 10, 20, 30, 40; the tick at 40 finds no pending events and
	// stops. The engine must not be kept alive past its own work.
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4: %+v", len(samples), samples)
	}
	if eng.Now() != 40 {
		t.Fatalf("sampler kept the engine alive until %d", eng.Now())
	}
	if samples[0].Util[0] != 1.0 || samples[1].Util[0] != 1.0 {
		t.Fatalf("busy interval utilization = %v, %v, want 1.0", samples[0].Util[0], samples[1].Util[0])
	}
	if samples[2].Util[0] != 0 || samples[3].Util[0] != 0 {
		t.Fatalf("idle interval utilization nonzero: %+v", samples[2:])
	}
	for _, s := range samples {
		if s.Gauge[0] != 7 {
			t.Fatalf("gauge = %d, want 7", s.Gauge[0])
		}
	}
	name, dh := c.DepthHist(0)
	if name != "bus" || dh.Count() != 4 {
		t.Fatalf("depth hist %q count %d", name, dh.Count())
	}
}

func TestSamplerCap(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewResource(eng, "bus")
	c := New(Options{SampleEvery: 1, MaxSamples: 3})
	c.WatchResource("bus", 0, r)
	eng.AtCall(100, func(any) {}, nil)
	c.StartSampler(eng)
	eng.Run()
	if len(c.Samples()) != 3 {
		t.Fatalf("got %d samples, want cap 3", len(c.Samples()))
	}
}

func buildCollector() *Collector {
	c := New(Options{})
	id := c.Begin(1, 0x2a, SpanRead, 100)
	c.Mark(id, PhaseRequest, 160)
	c.Mark(id, PhaseMemory, 169)
	c.Mark(id, PhaseReply, 229)
	c.End(id, 245)
	c.StallInterval(1, "read", 98, 245)
	c.RecordInstant(0, "grant", 0x2a, 169)
	return c
}

func TestTimelineValidJSONAndDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := buildCollector().WriteTimeline(&b1); err != nil {
		t.Fatal(err)
	}
	if err := buildCollector().WriteTimeline(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical collectors produced different timelines")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &parsed); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	var kinds []string
	for _, e := range parsed.TraceEvents {
		if e["ph"] == "X" {
			kinds = append(kinds, e["name"].(string))
		}
	}
	want := map[string]bool{"read-miss": false, "request": false, "memory": false, "reply": false, "fill": false, "read stall": false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("timeline missing %q slice; got %v", k, kinds)
		}
	}
}

func TestPhaseTotals(t *testing.T) {
	c := buildCollector()
	tot := c.PhaseTotals(SpanRead)
	if tot["request"] != 60 || tot["memory"] != 9 || tot["reply"] != 60 || tot["fill"] != 16 {
		t.Fatalf("PhaseTotals = %v", tot)
	}
	var sum int64
	for _, v := range tot {
		sum += v
	}
	if sum != 145 {
		t.Fatalf("phase totals sum %d, want 145", sum)
	}
	if c.PhaseTotals(SpanUpdate) != nil {
		t.Fatal("totals for an absent kind should be nil")
	}
}

// TestSamplerZeroDurationRun starts the sampler on an engine with no work:
// the run is zero-duration, so the sampler must record nothing and must not
// keep the engine alive past t=0.
func TestSamplerZeroDurationRun(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewResource(eng, "bus")
	c := New(Options{SampleEvery: 10})
	c.WatchResource("bus", 0, r)
	c.StartSampler(eng)
	eng.Run()
	if len(c.Samples()) != 0 {
		t.Fatalf("zero-duration run produced %d samples: %+v", len(c.Samples()), c.Samples())
	}
	if eng.Now() != 0 {
		t.Fatalf("sampler advanced an empty engine to t=%d", eng.Now())
	}
	if _, dh := c.DepthHist(0); dh.Count() != 0 {
		t.Fatalf("depth hist counted %d entries on a zero-duration run", dh.Count())
	}
}

// TestDepthHistBounds checks DepthHist tolerates every out-of-range index
// and a nil receiver instead of panicking.
func TestDepthHistBounds(t *testing.T) {
	c := New(Options{SampleEvery: 10})
	eng := sim.NewEngine()
	c.WatchResource("bus", 0, sim.NewResource(eng, "bus"))
	for _, i := range []int{-1, 1, 2, 1 << 20} {
		if name, dh := c.DepthHist(i); name != "" || dh.Count() != 0 {
			t.Fatalf("DepthHist(%d) = %q, count %d; want empty", i, name, dh.Count())
		}
	}
	if name, _ := c.DepthHist(0); name != "bus" {
		t.Fatalf("DepthHist(0) = %q, want bus", name)
	}
	var nilC *Collector
	if name, dh := nilC.DepthHist(0); name != "" || dh.Count() != 0 {
		t.Fatal("nil collector DepthHist not inert")
	}
}

// TestSamplerRestartOnEngineReuse runs two back-to-back workloads on one
// engine with StartSampler called before each: the second start must reset
// the interval baseline to the engine's current time, so the first sample
// of the second run measures only the new interval (no negative or
// double-counted utilization).
func TestSamplerRestartOnEngineReuse(t *testing.T) {
	eng := sim.NewEngine()
	r := sim.NewResource(eng, "bus")
	c := New(Options{SampleEvery: 10})
	c.WatchResource("bus", 0, r)

	// Run 1: bus busy [0,10), with a completion event keeping the engine
	// populated through the interval.
	r.UseCall(10, func(any) {}, nil)
	c.StartSampler(eng)
	eng.Run()
	if n := len(c.Samples()); n != 1 {
		t.Fatalf("run 1: %d samples, want 1", n)
	}
	if u := c.Samples()[0].Util[0]; u != 1.0 {
		t.Fatalf("run 1 utilization = %g, want 1.0", u)
	}

	// Idle gap: the engine sits at t=10 with no events. Run 2 starts the
	// sampler again with the bus idle for its whole interval.
	eng.AtCall(eng.Now()+20, func(any) {}, nil)
	c.StartSampler(eng)
	eng.Run()
	samples := c.Samples()
	if len(samples) != 3 {
		t.Fatalf("after run 2: %d samples, want 3: %+v", len(samples), samples)
	}
	for _, s := range samples[1:] {
		if s.Util[0] != 0 {
			t.Fatalf("run 2 idle utilization = %g at t=%d, want 0 (stale baseline?)", s.Util[0], s.At)
		}
		if s.Util[0] < 0 || s.Util[0] > 1 {
			t.Fatalf("utilization %g out of [0,1] at t=%d", s.Util[0], s.At)
		}
	}
	if samples[1].At != 20 || samples[2].At != 30 {
		t.Fatalf("run 2 sample times = %d, %d; want 20, 30", samples[1].At, samples[2].At)
	}
}
