package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace-event track IDs within each node's process.
const (
	tidStalls = 0 // processor stall intervals
	tidSpans  = 1 // transaction spans with nested phase slices
	tidDir    = 2 // directory-transition instants
)

// traceEvent is one Chrome trace-event object. Field order is fixed and maps
// marshal with sorted keys, so output bytes depend only on collected data.
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

// WriteTimeline renders the collected telemetry as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each node is a
// process with three tracks — cpu stalls, transactions, directory — plus one
// counter track per watched resource. Timestamps are pclocks. Output is
// byte-identical across identical runs.
func (c *Collector) WriteTimeline(w io.Writer) error {
	if c == nil {
		return fmt.Errorf("telemetry: no collector")
	}
	spans, stalls, instants := c.Spans(), c.Stalls(), c.Instants()
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
	machinePid := maxNode + 1 // synthetic process for machine-wide counters
	pid := func(node int) int {
		if node < 0 {
			return machinePid
		}
		return node
	}

	var ev []traceEvent
	// Metadata: name every process and track up front.
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
		// Phase slices nest under the span by containment on the same track.
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

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: ev, DisplayTimeUnit: "ns"})
}
