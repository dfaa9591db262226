package telemetry

import (
	"bufio"
	"errors"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Trace-event track IDs within each node's process.
const (
	tidStalls = 0 // processor stall intervals
	tidSpans  = 1 // transaction spans with nested phase slices
	tidDir    = 2 // directory-transition instants
)

// WriteTimeline renders the collected telemetry as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each node is a
// process with three tracks — cpu stalls, transactions, directory — plus one
// counter track per watched resource. Timestamps are pclocks. Output is
// byte-identical across identical runs.
//
// It streams the records from the collector's chunks through a buffered
// writer of its own, one event at a time, in this order: metadata, stalls,
// spans each followed by its phase slices, instants, then samples. The
// bytes are those encoding/json writes for the trace-event objects: keys in
// the order name, ph, ts, dur, pid, tid, s, args, with dur, s and args left
// out when empty, args keys sorted, strings HTML-escaped, floats in its
// format, and one trailing newline.
func (c *Collector) WriteTimeline(w io.Writer) error {
	if c == nil {
		return errors.New("telemetry: no collector")
	}
	maxNode := 0
	note := func(n int) {
		if n > maxNode {
			maxNode = n
		}
	}
	for i := 0; i < c.done.n; i++ {
		note(int(c.spans.at(int(*c.done.at(i))).node))
	}
	for i := 0; i < c.stalls.n; i++ {
		note(int(c.stalls.at(i).node))
	}
	for i := 0; i < c.instants.n; i++ {
		note(int(c.instants.at(i).node))
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

	t := timeline{w: bufio.NewWriterSize(w, 64<<10)}
	t.w.WriteString(`{"traceEvents":[`)

	// Metadata: name every process and track up front.
	for n := 0; n <= maxNode; n++ {
		t.meta("process_name", n, 0, "node "+strconv.Itoa(n))
		t.meta("thread_name", n, tidStalls, "cpu stalls")
		t.meta("thread_name", n, tidSpans, "transactions")
		t.meta("thread_name", n, tidDir, "directory")
	}
	t.meta("process_name", machinePid, 0, "machine")

	stallNames := make([]string, len(c.names))
	for i, n := range c.names {
		stallNames[i] = n + " stall"
	}
	for i := 0; i < c.stalls.n; i++ {
		s := c.stalls.at(i)
		t.end(t.head(stallNames[s.kind], "X", s.start, s.end-s.start, int(s.node), tidStalls))
	}

	var marks []Mark
	for i := 0; i < c.done.n; i++ {
		idx := int(*c.done.at(i))
		s := c.spans.at(idx)
		id := uint64(idx) + 1
		marks = c.appendMarks(marks[:0], s)
		end := marks[len(marks)-1].At
		b := t.head(s.kind.String(), "X", s.start, end-s.start, int(s.node), tidSpans)
		b = strconv.AppendUint(append(b, `,"args":{"block":`...), s.block, 10)
		b = appendQuoted(append(b, `,"dominant":`...), dominant(durations(s.start, marks)).String())
		b = strconv.AppendUint(append(b, `,"txn":`...), id, 10)
		t.end(append(b, '}'))
		// Phase slices nest under the span by containment on the same track.
		prev := s.start
		for _, m := range marks {
			if d := m.At - prev; d > 0 {
				b := t.head(m.Phase.String(), "X", prev, d, int(s.node), tidSpans)
				b = strconv.AppendUint(append(b, `,"args":{"txn":`...), id, 10)
				t.end(append(b, '}'))
			}
			prev = m.At
		}
	}

	for i := 0; i < c.instants.n; i++ {
		in := c.instants.at(i)
		b := t.head(c.names[in.name], "i", in.at, 0, int(in.node), tidDir)
		b = strconv.AppendUint(append(b, `,"s":"t","args":{"block":`...), in.block, 10)
		t.end(append(b, '}'))
	}

	utilNames := make([]string, len(c.watches))
	depthNames := make([]string, len(c.watches))
	for i, rw := range c.watches {
		utilNames[i], depthNames[i] = rw.name+" util", rw.name+" qdepth"
	}
	v := 0
	next := func() int64 {
		v++
		return *c.values.at(v - 1)
	}
	for i := 0; i < c.samples.n; i++ {
		r := c.samples.at(i)
		for j := 0; j < int(r.watches); j++ {
			node := pid(c.watches[j].node)
			// A utilization is a busy time over a positive interval, so
			// always finite: encoding/json would refuse a NaN or an Inf.
			b := t.head(utilNames[j], "C", r.at, 0, node, 0)
			b = appendFloat(append(b, `,"args":{"value":`...), math.Float64frombits(uint64(next())))
			t.end(append(b, '}'))
			b = t.head(depthNames[j], "C", r.at, 0, node, 0)
			b = strconv.AppendInt(append(b, `,"args":{"value":`...), next(), 10)
			t.end(append(b, '}'))
		}
		for j := 0; j < int(r.gauges); j++ {
			g := c.gauges[j]
			b := t.head(g.name, "C", r.at, 0, pid(g.node), 0)
			b = strconv.AppendInt(append(b, `,"args":{"value":`...), next(), 10)
			t.end(append(b, '}'))
		}
	}

	t.w.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return t.w.Flush()
}

// timeline renders trace events one at a time into a scratch buffer and
// hands each to a buffered writer, whose first error Flush reports.
type timeline struct {
	w    *bufio.Writer
	b    []byte // the event being rendered
	more bool   // an event has been written, so the next needs a comma
}

// head begins an event in the scratch buffer with every field before s and
// args. dur is left out when zero, as omitempty does.
func (t *timeline) head(name, ph string, ts, dur int64, pid, tid int) []byte {
	b := t.b[:0]
	if t.more {
		b = append(b, ',')
	}
	t.more = true
	b = appendQuoted(append(b, `{"name":`...), name)
	b = append(append(append(b, `,"ph":"`...), ph...), `","ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	if dur != 0 {
		b = strconv.AppendInt(append(b, `,"dur":`...), dur, 10)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	return strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

// end closes the event in b and writes it.
func (t *timeline) end(b []byte) {
	t.b = append(b, '}')
	t.w.Write(t.b)
}

// meta writes a metadata event naming a process or a track.
func (t *timeline) meta(name string, pid, tid int, value string) {
	b := t.head(name, "M", 0, 0, pid, tid)
	b = appendQuoted(append(b, `,"args":{"name":`...), value)
	t.end(append(b, '}'))
}

// appendQuoted appends s as a JSON string the way encoding/json's Encoder
// writes one by default: HTML-escaped, with invalid UTF-8 replaced by
// U+FFFD and U+2028 and U+2029 escaped.
func appendQuoted(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends f in encoding/json's format: 'f' form from 1e-6 up
// to 1e21, 'e' form outside that range with a one-digit exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
