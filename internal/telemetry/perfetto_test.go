package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"ccsim/internal/sim"
)

// traceEvent is one Chrome trace-event object as the timeline used to
// build it before encoding it through encoding/json: the oracle
// WriteTimeline's streamed bytes must equal.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// jsonTimeline renders c's timeline with the given spans the way
// WriteTimeline did before it streamed: every event into one slice, each
// with a map of args, encoded whole through encoding/json.
func jsonTimeline(w io.Writer, c *Collector, spans []*Span) error {
	stalls, instants := c.Stalls(), c.Instants()
	maxNode := 0
	note := func(n int) {
		if n > maxNode {
			maxNode = n
		}
	}
	for _, s := range spans {
		note(s.Node)
	}
	for _, s := range stalls {
		note(s.Node)
	}
	for _, in := range instants {
		note(in.Node)
	}
	for _, rw := range c.watches {
		note(rw.node)
	}
	for _, g := range c.gauges {
		note(g.node)
	}
	machinePid := maxNode + 1
	pid := func(node int) int {
		if node < 0 {
			return machinePid
		}
		return node
	}

	var ev []traceEvent
	for n := 0; n <= maxNode; n++ {
		ev = append(ev,
			traceEvent{Name: "process_name", Ph: "M", Pid: n, Args: map[string]any{"name": fmt.Sprintf("node %d", n)}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: n, Tid: tidStalls, Args: map[string]any{"name": "cpu stalls"}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: n, Tid: tidSpans, Args: map[string]any{"name": "transactions"}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: n, Tid: tidDir, Args: map[string]any{"name": "directory"}},
		)
	}
	ev = append(ev, traceEvent{Name: "process_name", Ph: "M", Pid: machinePid, Args: map[string]any{"name": "machine"}})

	for _, s := range stalls {
		ev = append(ev, traceEvent{
			Name: s.Kind + " stall", Ph: "X", Ts: s.Start, Dur: s.End - s.Start,
			Pid: s.Node, Tid: tidStalls,
		})
	}

	for _, s := range spans {
		ev = append(ev, traceEvent{
			Name: s.Kind.String(), Ph: "X", Ts: s.Start, Dur: s.End - s.Start,
			Pid: s.Node, Tid: tidSpans,
			Args: map[string]any{
				"block":    s.Block,
				"txn":      s.ID,
				"dominant": s.Dominant().String(),
			},
		})
		prev := s.Start
		for _, m := range s.Marks {
			if d := m.At - prev; d > 0 {
				ev = append(ev, traceEvent{
					Name: m.Phase.String(), Ph: "X", Ts: prev, Dur: d,
					Pid: s.Node, Tid: tidSpans,
					Args: map[string]any{"txn": s.ID},
				})
			}
			prev = m.At
		}
	}

	for _, in := range instants {
		ev = append(ev, traceEvent{
			Name: in.Name, Ph: "i", Ts: in.At, Pid: in.Node, Tid: tidDir, S: "t",
			Args: map[string]any{"block": in.Block},
		})
	}

	for _, s := range c.Samples() {
		for i, rw := range c.watches {
			ev = append(ev,
				traceEvent{
					Name: rw.name + " util", Ph: "C", Ts: s.At, Pid: pid(rw.node), Tid: 0,
					Args: map[string]any{"value": s.Util[i]},
				},
				traceEvent{
					Name: rw.name + " qdepth", Ph: "C", Ts: s.At, Pid: pid(rw.node), Tid: 0,
					Args: map[string]any{"value": s.Depth[i]},
				},
			)
		}
		for i, g := range c.gauges {
			ev = append(ev, traceEvent{
				Name: g.name, Ph: "C", Ts: s.At, Pid: pid(g.node), Tid: 0,
				Args: map[string]any{"value": s.Gauge[i]},
			})
		}
	}

	return json.NewEncoder(w).Encode(traceFile{TraceEvents: ev, DisplayTimeUnit: "ns"})
}

// requireOracleBytes fails unless c's WriteTimeline writes exactly what
// jsonTimeline renders from spans.
func requireOracleBytes(t *testing.T, c *Collector, spans []*Span) {
	t.Helper()
	var got, want bytes.Buffer
	if err := c.WriteTimeline(&got); err != nil {
		t.Fatal(err)
	}
	if err := jsonTimeline(&want, c, spans); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("timeline differs from encoding/json at byte %d of %d (want %d):\ngot  %q\nwant %q",
			i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

// addSample appends one sampler snapshot with the given values, as sample
// would record them, so a test can choose utilizations no run produces.
func addSample(c *Collector, at int64, util []float64, depth []int64, gauge []int64) {
	*c.samples.add() = sampleRec{at: at, watches: int32(len(util)), gauges: int32(len(gauge))}
	for i, u := range util {
		*c.values.add() = int64(math.Float64bits(u))
		*c.values.add() = depth[i]
	}
	for _, g := range gauge {
		*c.values.add() = g
	}
}

// TestTimelineMatchesEncodingJSON holds the streamed timeline to the bytes
// encoding/json gives the same events, on a collector that reaches every
// rule of that encoding: float utilizations in both exponent ranges and at
// their edges, zero-length and repeated phases, machine-wide (negative-node)
// watches and gauges, and names that need escaping (HTML characters,
// quotes, control characters, U+2028 and invalid UTF-8).
func TestTimelineMatchesEncodingJSON(t *testing.T) {
	eng := sim.NewEngine()
	res := sim.NewResource(eng, "r")
	c := New(Options{})
	c.WatchResource("bus <0> & co", 0, res)
	c.WatchResource("net", -1, res)
	c.WatchGauge("outstanding \"reqs\"", -1, func() int64 { return 0 })
	c.WatchGauge("slc\tdepth \u2028\u2029 \u00e9", 3, func() int64 { return 0 })

	id := c.Begin(2, 1<<40, SpanRead, 100)
	c.Mark(id, PhaseRequest, 100) // zero-length: no slice
	c.Mark(id, PhaseMemory, 130)
	c.Mark(id, PhaseMemory, 130)
	c.Mark(id, PhaseReply, 190)
	c.End(id, 190) // zero-length fill
	own := c.Begin(0, math.MaxUint64, SpanOwnership, 5)
	upd := c.Begin(1, 7, SpanUpdate, 6)
	c.Mark(upd, PhaseGather, 40)
	c.End(upd, 41)
	c.Mark(own, PhaseForward, 9)
	c.Mark(own, PhaseOwner, 60)
	c.End(own, 61)
	open := c.Begin(5, 3, SpanPrefetch, 7) // never ends: not in the timeline
	c.Mark(open, PhaseRequest, 8)

	c.StallInterval(1, "read", 10, 20)
	c.StallInterval(0, "<write> & \"more\"", 12, 40)
	c.StallInterval(4, "bar\u2028rier\x01", 1, 2)
	c.RecordInstant(0, "grant", 3, 50)
	c.RecordInstant(3, "revert <&>\\ \xff\u2029\b\f\n\r", 1<<63, 51)

	utils := []float64{
		0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 1e-6, 9.99999e-7, 1e-7, 1.5e-300,
		math.SmallestNonzeroFloat64, 1e20, 9.99999e20, 1e21, 1.25e21, 1e100, math.MaxFloat64, -2e-9,
	}
	for i, u := range utils {
		addSample(c, int64(1000*(i+1)), []float64{u, utils[len(utils)-1-i]},
			[]int64{int64(i), -1}, []int64{int64(-i), math.MaxInt64})
	}

	requireOracleBytes(t, c, c.Spans())
}

// TestTimelineEmptyCollector renders a collector with no records, metadata
// alone, and one whose only records are a machine-wide gauge's sample, as
// encoding/json has them.
func TestTimelineEmptyCollector(t *testing.T) {
	requireOracleBytes(t, New(Options{}), nil)
	c := New(Options{})
	c.WatchGauge("g", -1, func() int64 { return 0 })
	addSample(c, 10, nil, nil, []int64{4})
	requireOracleBytes(t, c, nil)
}
