package ccsim

// A plain-text format for operation streams, so workloads can be produced
// by external tools (address-trace converters, generators in other
// languages) and replayed through the simulator — the classic trace-driven
// alternative to the built-in program-driven kernels.
//
// Format: one operation per line, grouped into per-processor sections.
// Comments (#) and blank lines are ignored.
//
//	# anything
//	proc 0
//	stats            begin the measured section (required, once per proc)
//	r 0x1000         read byte address
//	w 4128           write (hex with 0x, or decimal)
//	c 250            compute for 250 pclocks
//	a 0x80000        acquire the lock at this address
//	u 0x80000        release it
//	b 3              arrive at barrier 3
//	proc 1
//	...

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseTrace reads the trace format and returns one stream per processor
// section, in section order. Every processor 0..N-1 must have exactly one
// section.
func ParseTrace(r io.Reader) ([]Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var (
		perProc = map[int][]Op{}
		cur     = -1
		maxProc = -1
		lineno  = 0
	)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace line %d: %s", lineno, fmt.Sprintf(format, args...))
	}
	parseU64 := func(s string) (uint64, error) {
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			return strconv.ParseUint(s[2:], 16, 64)
		}
		return strconv.ParseUint(s, 10, 64)
	}
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := fields[0]
		if op == "proc" {
			if len(fields) != 2 {
				return nil, fail("proc needs an id")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 {
				return nil, fail("bad processor id %q", fields[1])
			}
			if _, dup := perProc[id]; dup {
				return nil, fail("duplicate section for processor %d", id)
			}
			perProc[id] = []Op{}
			cur = id
			if id > maxProc {
				maxProc = id
			}
			continue
		}
		if cur < 0 {
			return nil, fail("operation before any proc section")
		}
		if op == "stats" {
			// Accepted for documentation value; every parsed stream gets a
			// leading StatsOn regardless.
			continue
		}
		if len(fields) != 2 {
			return nil, fail("want: <op> <arg>")
		}
		arg := fields[1]
		var parsed Op
		switch op {
		case "r", "w", "a", "u":
			addr, err := parseU64(arg)
			if err != nil {
				return nil, fail("bad address %q", arg)
			}
			kind := map[string]OpKind{"r": Read, "w": Write, "a": Acquire, "u": Release}[op]
			parsed = Op{Kind: kind, Addr: addr}
		case "c":
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n < 0 {
				return nil, fail("bad cycle count %q", arg)
			}
			parsed = Op{Kind: Busy, Cycles: n}
		case "b":
			id, err := strconv.Atoi(arg)
			if err != nil || id < 0 || id > math.MaxInt32 {
				return nil, fail("bad barrier id %q", arg)
			}
			parsed = Op{Kind: Barrier, Bar: id}
		default:
			return nil, fail("unknown operation %q", op)
		}
		perProc[cur] = append(perProc[cur], parsed)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxProc < 0 {
		return nil, fmt.Errorf("trace: no processor sections")
	}
	streams := make([]Stream, maxProc+1)
	for p := 0; p <= maxProc; p++ {
		ops, ok := perProc[p]
		if !ok {
			return nil, fmt.Errorf("trace: missing section for processor %d (sections must cover 0..%d)", p, maxProc)
		}
		streams[p] = Ops(append([]Op{{Kind: StatsOn}}, ops...)...)
	}
	return streams, nil
}

// WriteTrace renders per-processor operation slices in the trace format, so
// generated workloads can be saved and replayed.
func WriteTrace(w io.Writer, procs [][]Op) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# ccsim trace")
	for p, ops := range procs {
		fmt.Fprintf(bw, "proc %d\n", p)
		for _, op := range ops {
			switch op.Kind {
			case Read:
				fmt.Fprintf(bw, "r 0x%x\n", op.Addr)
			case Write:
				fmt.Fprintf(bw, "w 0x%x\n", op.Addr)
			case Acquire:
				fmt.Fprintf(bw, "a 0x%x\n", op.Addr)
			case Release:
				fmt.Fprintf(bw, "u 0x%x\n", op.Addr)
			case Busy:
				fmt.Fprintf(bw, "c %d\n", op.Cycles)
			case Barrier:
				fmt.Fprintf(bw, "b %d\n", op.Bar)
			case StatsOn:
				// implicit at the start of every parsed stream
			default:
				return fmt.Errorf("trace: cannot render op kind %d", op.Kind)
			}
		}
	}
	return bw.Flush()
}
