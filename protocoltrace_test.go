package ccsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccsim"
)

// slowWriter sleeps in every Write, like a writer on a slow disk or pipe,
// and hashes what it receives. busy is set while a Write is in progress.
// writes and sum are unsynchronized on purpose: the race detector reports
// a Write that Run's return does not wait for.
type slowWriter struct {
	sum    hash.Hash
	writes int
	busy   atomic.Bool
}

func newSlowWriter() *slowWriter { return &slowWriter{sum: sha256.New()} }

func (w *slowWriter) Write(p []byte) (int, error) {
	w.busy.Store(true)
	defer w.busy.Store(false)
	time.Sleep(time.Millisecond)
	w.writes++
	return w.sum.Write(p)
}

// runTraced runs cfg, or streams under cfg, with w as its trace writer and
// checks that no Write is still in progress when the run returns.
func runTraced(t *testing.T, cfg ccsim.Config, streams []ccsim.Stream, w *slowWriter) error {
	t.Helper()
	cfg.TraceWriter = w
	var err error
	if streams != nil {
		_, err = ccsim.RunStreams(cfg, streams)
	} else {
		_, err = ccsim.Run(cfg)
	}
	if w.busy.Load() {
		t.Error("a trace Write was still in progress when the run returned")
	}
	return err
}

// TestTraceSlowWriterGetsEveryLine: Record waits for a slow writer instead
// of dropping events, and the last Write has returned before Run does. The
// run is TestProtocolTraceGolden's, so its hash is that test's.
func TestTraceSlowWriterGetsEveryLine(t *testing.T) {
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "mp3d"
	cfg.Extensions = ccsim.Ext{P: true, CW: true}
	cfg.Scale = 0.02
	cfg.Procs = 4
	w := newSlowWriter()
	if err := runTraced(t, cfg, nil, w); err != nil {
		t.Fatal(err)
	}
	const want = "8a8c7392190537301dd7ecd7cff6c66912bfce2a40eb21c8f38730fd33bd2923"
	if got := hex.EncodeToString(w.sum.Sum(nil)); got != want {
		t.Fatalf("trace through a slow writer: sha256 = %s, want %s", got, want)
	}
	if w.writes < 2 {
		t.Fatalf("trace arrived in %d writes, want one per batch", w.writes)
	}
}

// TestFaultingRunTraceGolden pins the whole trace of three faulting runs,
// one per way a run ends early: a panic, a checker finding and a watchdog
// abort. Each trace ends at the fault and is complete when Run returns,
// even through a slow writer; the watchdog run's 8,499 lines span many
// full batches and a partial one. A change to the trace format, to the
// order of protocol events or to where a faulting run's trace stops
// changes a hash.
func TestFaultingRunTraceGolden(t *testing.T) {
	inject := tinyCfg("mp3d")
	inject.FaultInject = "mp3d/BASIC"
	mutated := mutationConfig(1)
	mutated.FaultInject = "wb-drop-word@mut/BASIC"
	mutated.Check = ccsim.NewChecker()
	watchdog := tinyCfg("mp3d")
	watchdog.MaxEvents = 20_000
	for _, c := range []struct {
		name    string
		cfg     ccsim.Config
		streams []ccsim.Stream
		kind    string
		want    string
	}{
		{"injected panic", inject, nil, ccsim.FaultPanic,
			"a0b865762d146dac8b3a58bacf880a41e6a3fb7877225c96a84da765cf6f122b"},
		{"checker finding", mutated, wbDropStreams(), ccsim.FaultInvariant,
			"7183a6ebac77ccc68830fc2262e51e5843b874e0bec32e97d8dac88578a06cf3"},
		{"max events", watchdog, nil, ccsim.FaultMaxEvents,
			"58d897978ed2f8a4b96427833774176aecc718bd3b13190823b21bdba8cc1f48"},
	} {
		w := newSlowWriter()
		err := runTraced(t, c.cfg, c.streams, w)
		if f, ok := ccsim.AsFault(err); !ok || f.Kind != c.kind {
			t.Fatalf("%s: err = %v, want a %s fault", c.name, err, c.kind)
		}
		if got := hex.EncodeToString(w.sum.Sum(nil)); got != c.want {
			t.Errorf("%s: trace sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// panicWriter panics on its second Write.
type panicWriter struct{ writes int }

func (w *panicWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		panic("trace sink closed")
	}
	return len(p), nil
}

// TestTraceWriterPanicFailsRun: a trace writer that panics fails the run
// with an error naming the panic. The simulation neither crashes nor
// hangs, and its own faults still come back as faults.
func TestTraceWriterPanicFailsRun(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.TraceWriter = &panicWriter{}
	res, err := ccsim.Run(cfg)
	if res != nil || err == nil || !strings.Contains(err.Error(), "trace sink closed") {
		t.Fatalf("Run = %v, %v; want no result and the writer's panic", res, err)
	}
	if _, ok := ccsim.AsFault(err); ok {
		t.Fatalf("writer panic reported as a simulation fault: %v", err)
	}
	cfg.MaxEvents = 20_000
	cfg.TraceWriter = &panicWriter{}
	_, err = ccsim.Run(cfg)
	if f, ok := ccsim.AsFault(err); !ok || f.Kind != ccsim.FaultMaxEvents ||
		!strings.Contains(err.Error(), "trace sink closed") {
		t.Fatalf("err = %v, want the max-events fault and the writer's panic", err)
	}
}

// traceAllocs is the mean allocation count of one run of cfg with the
// given trace writer.
func traceAllocs(t *testing.T, cfg ccsim.Config, w io.Writer) float64 {
	t.Helper()
	cfg.TraceWriter = w
	var runErr error
	n := testing.AllocsPerRun(3, func() {
		if _, err := ccsim.Run(cfg); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return n
}

// TestTracingAddsConstantAllocs: a traced run allocates a constant more
// than the same run untraced, whatever its length: the tracer, its
// channels and renderer, and its batches when the pool is empty. Nothing
// is allocated per event. While each ownership grant formatted its "to=N"
// note with fmt, this run allocated 839 more traced than untraced; now it
// is about 7.
func TestTracingAddsConstantAllocs(t *testing.T) {
	const extra = 20
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "mp3d"
	cfg.Procs = 16
	cfg.Scale = 0.1
	plain := traceAllocs(t, cfg, nil)
	traced := traceAllocs(t, cfg, io.Discard)
	t.Logf("%v allocs per run untraced, %v traced", plain, traced)
	if traced > plain+extra {
		t.Fatalf("traced run allocates %v, untraced %v: more than %d extra", traced, plain, extra)
	}
}
