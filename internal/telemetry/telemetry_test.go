package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

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

// TestSpanCap fills MaxSpans with open and completed spans: further Begins
// are dropped and counted, their ID 0 is inert, and spans already open
// still complete.
func TestSpanCap(t *testing.T) {
	c := New(Options{MaxSpans: 3})
	a := c.Begin(0, 1, SpanRead, 0)
	c.End(a, 5)
	b := c.Begin(0, 2, SpanRead, 6)
	d := c.Begin(0, 3, SpanRead, 7)
	for i := 0; i < 4; i++ {
		id := c.Begin(0, 4, SpanRead, 8)
		if id != 0 {
			t.Fatalf("Begin over the cap returned ID %d", id)
		}
		c.Mark(id, PhaseRequest, 9)
		c.End(id, 10)
	}
	c.End(b, 11)
	c.End(d, 12)
	if got := c.DroppedSpans(); got != 4 {
		t.Fatalf("DroppedSpans = %d, want 4", got)
	}
	if got := len(c.Spans()); got != 3 {
		t.Fatalf("kept %d spans, want 3", got)
	}
	if id := c.Begin(0, 5, SpanRead, 13); id != 0 || c.DroppedSpans() != 5 {
		t.Fatalf("Begin after the cap filled with completed spans = %d, dropped %d", id, c.DroppedSpans())
	}
}

// TestKeptSpansCountsSpans checks KeptSpans, which the CLI's overflow
// warning reads instead of building every span, against len(Spans) as a
// collector fills past its cap with spans completed out of order, some
// left open; a nil collector keeps none.
func TestKeptSpansCountsSpans(t *testing.T) {
	var nilc *Collector
	if n := nilc.KeptSpans(); n != 0 {
		t.Fatalf("nil collector keeps %d spans", n)
	}
	c := New(Options{MaxSpans: 300})
	var open []uint64
	for i := 0; i < 400; i++ {
		open = append(open, c.Begin(i%16, uint64(i), SpanRead, int64(i)))
		if i%3 == 2 {
			c.End(open[1], int64(i+1))
			open = append(open[:1], open[2:]...)
		}
		if got, want := c.KeptSpans(), len(c.Spans()); got != want {
			t.Fatalf("after %d Begins: KeptSpans = %d, len(Spans) = %d", i+1, got, want)
		}
	}
	if c.DroppedSpans() == 0 || c.KeptSpans() == 0 {
		t.Fatalf("collector did not overflow: kept %d, dropped %d", c.KeptSpans(), c.DroppedSpans())
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

// TestStallAndInstantNames interleaves stalls and instants of several
// kinds and names, which share one table of codes: each must come back
// with the string it was recorded with.
func TestStallAndInstantNames(t *testing.T) {
	c := New(Options{})
	kinds := []string{"read", "write", "acquire", "read", "barrier"}
	names := []string{"grant", "revert", "grant", "migratory", "write"}
	for i := range kinds {
		c.StallInterval(i, kinds[i], int64(i), int64(i)+1)
		c.RecordInstant(i, names[i], uint64(i), int64(i))
	}
	st, in := c.Stalls(), c.Instants()
	if len(st) != len(kinds) || len(in) != len(names) {
		t.Fatalf("got %d stalls and %d instants, want %d of each", len(st), len(in), len(kinds))
	}
	for i := range kinds {
		if st[i] != (Stall{Node: i, Kind: kinds[i], Start: int64(i), End: int64(i) + 1}) {
			t.Errorf("stall %d = %+v, want kind %q", i, st[i], kinds[i])
		}
		if in[i] != (Instant{Node: i, Name: names[i], Block: uint64(i), At: int64(i)}) {
			t.Errorf("instant %d = %+v, want name %q", i, in[i], names[i])
		}
	}
}

// TestRecordsHoldNoPointers keeps telemetry's records out of the garbage
// collector's scan: every chunk list the collector keeps must hold records
// of plain values only, so a pointer, slice, map, interface, func, chan or
// string field (a span's mark slice, a stall's kind string), or an array or
// struct holding one, fails here. Spans, stalls, instants and sampler
// snapshots must each have a list.
func TestRecordsHoldNoPointers(t *testing.T) {
	var holds func(reflect.Type) bool
	holds = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.String:
			return true
		case reflect.Array:
			return holds(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if holds(typ.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	kept := map[string]bool{}
	typ := reflect.TypeOf(Collector{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !strings.HasPrefix(f.Type.Name(), "chunks[") {
			continue
		}
		// chunks[T].c is a []*[chunkLen]T.
		rec := f.Type.Field(0).Type.Elem().Elem().Elem()
		kept[rec.Name()] = true
		if holds(rec) {
			t.Errorf("Collector.%s keeps %s, which holds a pointer", f.Name, rec)
		}
	}
	for _, rec := range []string{"spanRec", "stallRec", "instantRec", "sampleRec"} {
		if !kept[rec] {
			t.Errorf("no chunk list of %s in Collector", rec)
		}
	}
}

// TestSpanRecSize pins a span record at 64 bytes: eight 32-bit mark
// offsets and one word of 4-bit phases, where eight int64 mark times and
// eight phase bytes made it 104.
func TestSpanRecSize(t *testing.T) {
	if got := unsafe.Sizeof(spanRec{}); got != 64 {
		t.Fatalf("spanRec is %d bytes, want 64", got)
	}
	if NumPhases > 1<<phaseBits {
		t.Fatalf("%d phases do not fit %d bits each", NumPhases, phaseBits)
	}
}

// TestSpanMarksRoundTrip records spans whose marks do not all fit in their
// record, with their marks interleaved: nine and twenty marks, a mark
// exactly math.MaxUint32 pclocks after the start and one more than that,
// marks before the start, and marks that would fit again after one that
// did not. Spans, PhaseTotals and WriteTimeline must give back exactly what
// was recorded.
func TestSpanMarksRoundTrip(t *testing.T) {
	const far = int64(math.MaxUint32)
	type rec struct {
		node       int
		block      uint64
		kind       SpanKind
		start, end int64
		marks      []Mark // before the fill End adds
	}
	steps := func(start, step int64, n int) []Mark {
		var m []Mark
		for i := 1; i <= n; i++ {
			m = append(m, Mark{Phase(i % int(PhaseFill)), start + step*int64(i)})
		}
		return m
	}
	recs := []rec{
		{0, 1, SpanRead, 10, 19, steps(10, 1, 8)},
		{1, 2, SpanOwnership, 1 << 50, 1<<50 + 60, steps(1<<50, 3, 19)},
		{2, 3, SpanRead, 5, 5 + 2*far + 7, []Mark{
			{PhaseRequest, 5 + far}, {PhaseMemory, 5 + far + 1}, {PhaseReply, 5 + 2*far}}},
		{3, 4, SpanUpdate, 100, 100 + far + 20, []Mark{
			{PhaseRequest, 150}, {PhaseForward, 100 + far + 10}, {PhaseOwner, 120}, {PhaseDirWait, 90}}},
		{2, 5, SpanPrefetch, 1000, 1010, []Mark{{PhaseRequest, 999}, {PhaseMemory, 1005}}},
		{0, 6, SpanRead, 0, 4, []Mark{{PhaseGather, 3}}},
	}
	c := New(Options{})
	ids := make([]uint64, len(recs))
	most := 0
	for i, r := range recs {
		ids[i] = c.Begin(r.node, r.block, r.kind, r.start)
		most = max(most, len(r.marks))
	}
	for k := 0; k < most; k++ {
		for i, r := range recs {
			if k < len(r.marks) {
				c.Mark(ids[i], r.marks[k].Phase, r.marks[k].At)
			}
		}
	}
	var want []*Span
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		c.End(ids[i], r.end)
		marks := append(append([]Mark(nil), r.marks...), Mark{PhaseFill, r.end})
		want = append(want, &Span{ID: ids[i], Node: r.node, Block: r.block, Kind: r.kind,
			Start: r.start, End: r.end, Marks: marks})
	}
	if got := c.Spans(); !reflect.DeepEqual(got, want) {
		for i := range got {
			t.Logf("span %d = %+v", i, *got[i])
		}
		t.Fatal("Spans did not return the spans as recorded")
	}
	for kind := SpanRead; kind <= SpanUpdate; kind++ {
		var tot map[string]int64
		for _, s := range want {
			if s.Kind != kind {
				continue
			}
			if tot == nil {
				tot = map[string]int64{}
			}
			for p, d := range s.Durations() {
				tot[Phase(p).String()] += d
			}
		}
		for p, d := range tot {
			if d == 0 {
				delete(tot, p)
			}
		}
		if got := c.PhaseTotals(kind); !reflect.DeepEqual(got, tot) {
			t.Errorf("PhaseTotals(%v) = %v, want %v", kind, got, tot)
		}
	}
	requireOracleBytes(t, c, want)
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
	// The reservation ends at 20, so only the first tick finds it queued.
	for i, want := range []int{1, 0, 0, 0} {
		if d := samples[i].Depth[0]; d != want {
			t.Fatalf("sample %d queue depth = %d, want %d", i, d, want)
		}
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

// TestSpanIDsIgnoredWhenNotOpen marks and ends IDs that are zero, were
// never handed out, or belong to a span that already ended: each must leave
// every span untouched.
func TestSpanIDsIgnoredWhenNotOpen(t *testing.T) {
	c := New(Options{})
	a := c.Begin(0, 1, SpanRead, 10)
	c.Mark(a, PhaseRequest, 20)
	c.End(a, 30)
	b := c.Begin(1, 2, SpanOwnership, 40)
	for _, id := range []uint64{0, a, b + 1, 1 << 40} {
		c.Mark(id, PhaseMemory, 50)
		c.End(id, 60)
	}
	c.End(b, 70)
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	want := []struct {
		id       uint64
		end      int64
		lastMark Mark
		marks    int
	}{
		{a, 30, Mark{PhaseFill, 30}, 2},
		{b, 70, Mark{PhaseFill, 70}, 1},
	}
	for i, w := range want {
		s := spans[i]
		if s.ID != w.id || s.End != w.end || len(s.Marks) != w.marks || s.Marks[len(s.Marks)-1] != w.lastMark {
			t.Fatalf("span %d = %+v, want ID %d ending at %d with %d marks", i, *s, w.id, w.end, w.marks)
		}
	}
}

// TestSpanMarksBeyondInlineCapacity interleaves two spans whose marks
// outgrow their slab slots: every mark must stay with its span, in order,
// and neither span may overwrite the other's or a later span's marks.
func TestSpanMarksBeyondInlineCapacity(t *testing.T) {
	c := New(Options{})
	a := c.Begin(0, 1, SpanRead, 0)
	b := c.Begin(1, 2, SpanRead, 0)
	const n = 3*inlineMarks + 1
	for i := 1; i <= n; i++ {
		c.Mark(a, Phase(i%int(NumPhases)), int64(i))
		c.Mark(b, Phase((i+1)%int(NumPhases)), int64(1000+i))
	}
	d := c.Begin(2, 3, SpanUpdate, 0)
	c.Mark(d, PhaseGather, 5)
	c.End(a, n+1)
	c.End(d, 6)
	c.End(b, 1000+n+1)
	check := func(s *Span, base int64, shift int) {
		t.Helper()
		if len(s.Marks) != n+1 {
			t.Fatalf("span %d has %d marks, want %d", s.ID, len(s.Marks), n+1)
		}
		for i, m := range s.Marks[:n] {
			want := Mark{Phase((i + 1 + shift) % int(NumPhases)), base + int64(i+1)}
			if m != want {
				t.Fatalf("span %d mark %d = %+v, want %+v", s.ID, i, m, want)
			}
		}
		if last := s.Marks[n]; last != (Mark{PhaseFill, base + n + 1}) {
			t.Fatalf("span %d final mark = %+v", s.ID, last)
		}
	}
	spans := c.Spans()
	check(spans[0], 0, 0)
	check(spans[2], 1000, 1)
	if got := spans[1].Marks; len(got) != 2 || got[0] != (Mark{PhaseGather, 5}) || got[1] != (Mark{PhaseFill, 6}) {
		t.Fatalf("third span's marks = %+v", got)
	}
}

// TestSpanSlabsKeepSpansApart begins more spans than one chunk holds, all
// open at once, and checks each completes with its own fields and marks.
func TestSpanSlabsKeepSpansApart(t *testing.T) {
	c := New(Options{})
	const n = 2*chunkLen + 3
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = c.Begin(i%16, uint64(i), SpanKind(i%4), int64(i))
		if ids[i] != uint64(i+1) {
			t.Fatalf("span %d got ID %d, want %d", i, ids[i], i+1)
		}
		c.Mark(ids[i], PhaseRequest, int64(i)+1)
	}
	for i := n - 1; i >= 0; i-- {
		c.End(ids[i], int64(i)+2)
	}
	for j, s := range c.Spans() {
		i := n - 1 - j
		if s.ID != uint64(i+1) || s.Node != i%16 || s.Block != uint64(i) || s.Kind != SpanKind(i%4) ||
			s.Start != int64(i) || s.End != int64(i)+2 {
			t.Fatalf("span %d = %+v, want the fields of span %d", j, *s, i+1)
		}
		if len(s.Marks) != 2 || s.Marks[0] != (Mark{PhaseRequest, int64(i) + 1}) || s.Marks[1] != (Mark{PhaseFill, int64(i) + 2}) {
			t.Fatalf("span %d marks = %+v", j, s.Marks)
		}
	}
}

// TestSharingClassOfUnseenBlock checks ClassOf reports ok only for blocks
// observed, even when a neighbouring block shares their table page, and
// that a block's first write is not counted as a writer change.
func TestSharingClassOfUnseenBlock(t *testing.T) {
	s := NewSharing()
	const far = uint64(1) << 58
	for _, b := range []uint64{0, 5, far} {
		if _, ok := s.ClassOf(b); ok {
			t.Fatalf("ClassOf(%d) ok before any access", b)
		}
	}
	s.OnWrite(0, far, 0)
	s.OnRead(0, far)
	if c, ok := s.ClassOf(far); !ok || c != ShareIrregular {
		t.Fatalf("ClassOf(far) = %v, %v; want irregular, true", c, ok)
	}
	if _, ok := s.ClassOf(far + 1); ok {
		t.Fatal("ClassOf reports a never-seen block on a touched page")
	}
	// Node 1 writes first: lastWriter starts at -1, not at node 0, so this
	// is no writer change. The third write is a handoff.
	s.OnWrite(1, 1, 0)
	s.OnWrite(0, 1, 1)
	s.OnRead(1, 1)
	s.OnWrite(1, 1, 2)
	bs := s.blocks.Get(1)
	if bs.writerChanges != 2 || bs.handoffs != 1 {
		t.Fatalf("writerChanges %d handoffs %d, want 2 and 1", bs.writerChanges, bs.handoffs)
	}
	if r := s.Report(); r.Blocks != 2 {
		t.Fatalf("report counts %d blocks, want 2", r.Blocks)
	}
}
