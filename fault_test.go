package ccsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"sync"
	"testing"

	"ccsim"
)

// TestRunRecoversInjectedPanic drives the whole fault-containment path: a
// deliberately injected panic must come back from Run as a structured
// *SimFault carrying stack, snapshot and flight-recorder tail — never as a
// process crash.
func TestRunRecoversInjectedPanic(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.FaultInject = "mp3d/BASIC"
	r, err := ccsim.Run(cfg)
	if err == nil || r != nil {
		t.Fatalf("injected panic produced result %v, err %v", r, err)
	}
	f, ok := ccsim.AsFault(err)
	if !ok {
		t.Fatalf("error is not a *SimFault: %v", err)
	}
	if f.Kind != ccsim.FaultPanic {
		t.Fatalf("fault kind %q, want %q", f.Kind, ccsim.FaultPanic)
	}
	if !strings.Contains(f.Message, "deliberate fault injection") {
		t.Errorf("fault message lost the panic value: %q", f.Message)
	}
	if len(f.Stack) == 0 {
		t.Error("panic fault carries no stack")
	}
	if f.Snapshot == nil {
		t.Fatal("panic fault carries no snapshot")
	}
	if f.Snapshot.MessagesSeen == 0 || len(f.Snapshot.Messages) == 0 {
		t.Errorf("flight recorder empty at fault: seen %d, tail %d",
			f.Snapshot.MessagesSeen, len(f.Snapshot.Messages))
	}
	var sb strings.Builder
	f.Dump(&sb)
	if !strings.Contains(sb.String(), "flight recorder") {
		t.Error("Dump does not render the flight recorder")
	}
}

// TestFaultInjectMatchesIdentity checks the injection key is precise: a
// key naming a different protocol must leave the run untouched.
func TestFaultInjectMatchesIdentity(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.FaultInject = "mp3d/P+CW" // this run is mp3d/BASIC
	if _, err := ccsim.Run(cfg); err != nil {
		t.Fatalf("non-matching FaultInject key affected the run: %v", err)
	}
}

// runABBA runs the classic ABBA lock cycle: processor 0 takes lock A then
// wants B, processor 1 takes B then wants A.
func runABBA() error {
	const lockA, lockB = 0, 4096
	cfg := ccsim.DefaultConfig()
	cfg.Procs = 2
	cfg.MaxEvents = 1_000_000 // backstop: the test must never hang
	streams := []ccsim.Stream{
		ccsim.Ops(
			ccsim.Op{Kind: ccsim.StatsOn},
			ccsim.Op{Kind: ccsim.Acquire, Addr: lockA},
			ccsim.Op{Kind: ccsim.Busy, Cycles: 500},
			ccsim.Op{Kind: ccsim.Acquire, Addr: lockB},
		),
		ccsim.Ops(
			ccsim.Op{Kind: ccsim.StatsOn},
			ccsim.Op{Kind: ccsim.Acquire, Addr: lockB},
			ccsim.Op{Kind: ccsim.Busy, Cycles: 500},
			ccsim.Op{Kind: ccsim.Acquire, Addr: lockA},
		),
	}
	_, err := ccsim.RunStreams(cfg, streams)
	return err
}

// TestDeadlockAborts runs the ABBA lock cycle. The watchdog must abort
// with a deadlock SimFault naming both stuck processors instead of hanging
// (or running into its event ceiling).
func TestDeadlockAborts(t *testing.T) {
	err := runABBA()
	if err == nil {
		t.Fatal("ABBA deadlock completed successfully")
	}
	f, ok := ccsim.AsFault(err)
	if !ok {
		t.Fatalf("deadlock error is not a *SimFault: %v", err)
	}
	if f.Kind != ccsim.FaultDeadlock {
		t.Fatalf("fault kind %q, want %q (err: %v)", f.Kind, ccsim.FaultDeadlock, err)
	}
	for _, agent := range []string{"proc 0", "proc 1"} {
		if !strings.Contains(f.Message, agent) {
			t.Errorf("deadlock fault does not name %s: %q", agent, f.Message)
		}
	}
	if !strings.Contains(f.Message, "waiting for lock") {
		t.Errorf("deadlock fault does not name the locks: %q", f.Message)
	}
}

// TestMaxEventsAborts checks Config.MaxEvents: a ceiling far below the
// workload's needs must abort with a max-events fault, and the identical
// configuration without the ceiling must pass — tight-but-sufficient
// limits never fire (the chaos test runs whole sweeps under them).
func TestMaxEventsAborts(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.MaxEvents = 2_000
	_, err := ccsim.Run(cfg)
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultMaxEvents {
		t.Fatalf("err = %v, want a %s fault", err, ccsim.FaultMaxEvents)
	}
	cfg.MaxEvents = 0
	if _, err := ccsim.Run(tinyCfg("mp3d")); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

// TestDeadlineAborts checks Config.Deadline maps to the watchdog's
// simulated-time ceiling.
func TestDeadlineAborts(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.Deadline = 100 // pclocks: far too early
	_, err := ccsim.Run(cfg)
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultDeadline {
		t.Fatalf("err = %v, want a %s fault", err, ccsim.FaultDeadline)
	}
}

// TestWatchdogFaultsRepeat pins what makes a watchdog fault final: it is a
// function of the configuration, so running the configuration again ends
// the same way. Every kernel under BASIC and P+CW runs with an event
// ceiling at half its clean run's events, with a deadline at half its
// simulated time, and with a livelock threshold of 40 events; the ABBA
// lock pair deadlocks. Each configuration runs five times, three of them
// concurrently, and every run must produce the same fault dump to the
// byte, snapshot and flight recorder included.
func TestWatchdogFaultsRepeat(t *testing.T) {
	type trial struct {
		name string
		want string // the only fault kind the run may end with
		run  func() error
	}
	var trials []trial
	for _, wl := range ccsim.Workloads() {
		for _, ext := range []ccsim.Ext{{}, {P: true, CW: true}} {
			cfg := ccsim.DefaultConfig()
			cfg.Workload, cfg.Scale, cfg.Procs, cfg.Extensions = wl, 0.05, 4, ext
			clean, err := ccsim.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s clean run: %v", wl, cfg.ProtocolName(), err)
			}
			limits := []struct {
				kind string
				set  func(*ccsim.Config)
			}{
				{ccsim.FaultMaxEvents, func(c *ccsim.Config) { c.MaxEvents = clean.Queue.Dispatched / 2 }},
				{ccsim.FaultDeadline, func(c *ccsim.Config) { c.Deadline = clean.TotalPclocks / 2 }},
				{ccsim.FaultLivelock, func(c *ccsim.Config) { c.NoProgressEvents = 40 }},
			}
			for _, l := range limits {
				c := cfg
				l.set(&c)
				trials = append(trials, trial{
					name: wl + "/" + c.ProtocolName() + "/" + l.kind,
					want: l.kind,
					run:  func() error { _, err := ccsim.Run(c); return err },
				})
			}
		}
	}
	trials = append(trials, trial{name: "abba", want: ccsim.FaultDeadlock, run: runABBA})

	// dump renders a run's outcome: its fault kind and full dump, or ""
	// for a run that completed.
	dump := func(err error) (kind, text string) {
		if err == nil {
			return "", ""
		}
		f, ok := ccsim.AsFault(err)
		if !ok {
			return "error", err.Error()
		}
		var b strings.Builder
		f.Dump(&b)
		return f.Kind, b.String()
	}
	const runs, concurrent = 5, 3
	seen := map[string]int{}
	for _, tr := range trials {
		kinds, texts := make([]string, runs), make([]string, runs)
		for i := 0; i < runs-concurrent; i++ {
			kinds[i], texts[i] = dump(tr.run())
		}
		var wg sync.WaitGroup
		for i := runs - concurrent; i < runs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				kinds[i], texts[i] = dump(tr.run())
			}(i)
		}
		wg.Wait()
		// Only the livelock threshold may let a run finish: a kernel that
		// retires an operation every 40 events never trips it.
		if kinds[0] != tr.want && (kinds[0] != "" || tr.want != ccsim.FaultLivelock) {
			t.Errorf("%s: ended with %q, want a %s fault:\n%s", tr.name, kinds[0], tr.want, texts[0])
			continue
		}
		seen[kinds[0]]++
		for i := 1; i < runs; i++ {
			if kinds[i] != kinds[0] || texts[i] != texts[0] {
				t.Errorf("%s: run %d ended differently from run 0:\n%s\n--- vs ---\n%s", tr.name, i, texts[i], texts[0])
			}
		}
	}
	for _, kind := range []string{ccsim.FaultMaxEvents, ccsim.FaultDeadline, ccsim.FaultLivelock, ccsim.FaultDeadlock} {
		if seen[kind] == 0 {
			t.Errorf("no configuration faulted with %s", kind)
		}
	}
}

// feedStream hands out a fixed op slice like ccsim.Ops, but through a type
// of its own, so RunStreams cannot restart it from its slice. When cancel
// is set, it fires the flag as it hands out op number cancelAt.
type feedStream struct {
	ops      []ccsim.Op
	i        int
	cancel   *ccsim.Cancel
	cancelAt int
}

func (s *feedStream) Next() (ccsim.Op, bool) {
	if s.i >= len(s.ops) {
		return ccsim.Op{}, false
	}
	if s.cancel != nil && s.i == s.cancelAt {
		s.cancel.Cancel()
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// feedStreams returns mp3d's ops at 4 processors and scale 0.05 as feed
// streams; processor 0's fires cancel at its op cancelAt when cancel is
// set.
func feedStreams(t *testing.T, cancel *ccsim.Cancel, cancelAt int) []ccsim.Stream {
	t.Helper()
	ops, err := ccsim.WorkloadOps("mp3d", 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ccsim.Stream, len(ops))
	for p, o := range ops {
		s := &feedStream{ops: o}
		if p == 0 {
			s.cancel, s.cancelAt = cancel, cancelAt
		}
		out[p] = s
	}
	return out
}

// TestFaultDumpGolden pins the whole fault dump, Go stack aside, of one
// run for each way a run can fault: an injected panic, a checker finding
// through RunStreams, an event ceiling with telemetry and the sharing
// analyzer attached, a deadline, a livelock, the ABBA deadlock, a cancel
// fired from inside a custom stream and an event ceiling on the same
// custom streams. The dump carries the snapshot and the flight recorder's
// message tail, so a change to either, or to where a faulting run stops,
// changes a hash. A cancelled run is not replayed, so its dump has no
// message tail.
func TestFaultDumpGolden(t *testing.T) {
	inject := tinyCfg("mp3d")
	inject.FaultInject = "mp3d/BASIC"
	mutated := mutationConfig(1)
	mutated.FaultInject = "wb-drop-word@mut/BASIC"
	mutated.Check = ccsim.NewChecker()
	observed := tinyCfg("mp3d")
	observed.Extensions = ccsim.Ext{P: true, CW: true}
	observed.MaxEvents = 20_000
	observed.Telemetry = ccsim.NewTelemetry()
	observed.Sharing = ccsim.NewSharingAnalytics()
	deadline := tinyCfg("water")
	deadline.Deadline = 10_000
	livelock := tinyCfg("cholesky")
	livelock.Extensions = ccsim.Ext{P: true, CW: true}
	livelock.NoProgressEvents = 40
	feed := ccsim.DefaultConfig()
	feed.Procs = 4
	cancel := &ccsim.Cancel{}
	canceled := feed
	canceled.Cancel = cancel
	ceiling := feed
	ceiling.MaxEvents = 15_000
	for _, c := range []struct {
		name string
		kind string
		run  func() error
		want string
	}{
		{"injected panic", ccsim.FaultPanic,
			func() error { _, err := ccsim.Run(inject); return err },
			"c7635ba6d79b658aa55a6e3cad3f659402624e41198ba9d8be0397bb40ec14fe"},
		{"checker finding", ccsim.FaultInvariant,
			func() error { _, err := ccsim.RunStreams(mutated, wbDropStreams()); return err },
			"0c67774d410d14132317491dc5e9be4ccb6b16f9ed85314e0335d39d510d0b43"},
		{"max events observed", ccsim.FaultMaxEvents,
			func() error { _, err := ccsim.Run(observed); return err },
			"7e1762768bec351cac9a839ceb9dfe795b6f358f7a74dd8bfc1235d0e321c3a4"},
		{"deadline", ccsim.FaultDeadline,
			func() error { _, err := ccsim.Run(deadline); return err },
			"4df61b0a121864815319376858abaf84eb84165bb3cd79951bf85b55054e834e"},
		{"livelock", ccsim.FaultLivelock,
			func() error { _, err := ccsim.Run(livelock); return err },
			"cbf368336bf552cf8dbc59391a89ac176c627e25137b4bcfc51135c2c2f641db"},
		{"deadlock", ccsim.FaultDeadlock, runABBA,
			"1d84a719cf8c8d594e3f7a891bdcbbd5579a3807dbdaa0b0a2427f1c8137efdd"},
		{"canceled from a stream", ccsim.FaultCanceled,
			func() error { _, err := ccsim.RunStreams(canceled, feedStreams(t, cancel, 300)); return err },
			"c9187417cf64267053a1f79571640b62b697df953947b556aa853c9149f07e07"},
		{"max events through a stream", ccsim.FaultMaxEvents,
			func() error { _, err := ccsim.RunStreams(ceiling, feedStreams(t, nil, 0)); return err },
			"e3854d7ec7a01553f4616ee1ce5a6bd362f7644f310e232ea9c1deccd20b2b06"},
	} {
		err := c.run()
		f, ok := ccsim.AsFault(err)
		if !ok || f.Kind != c.kind {
			t.Errorf("%s: err = %v, want a %s fault", c.name, err, c.kind)
			continue
		}
		f.Stack = nil
		h := sha256.New()
		f.Dump(h)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: dump sha256 = %s, want %s", c.name, got, c.want)
		}
		if replayed := f.Snapshot.MessagesSeen > 0; replayed == (c.kind == ccsim.FaultCanceled) {
			t.Errorf("%s: replayed = %v, want a replay for every fault but a cancel", c.name, replayed)
		}
	}
}

// TestFaultDumpSameWithTrace: a faulting run dumps the same bytes with a
// protocol trace attached as without one, a trace restricted to one block
// included. The replay that recomputes the dump's message tail drops the
// trace writer and puts its tail on the trace hook instead, so the two
// sinks never share a run.
func TestFaultDumpSameWithTrace(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     func() ccsim.Config
		streams func() []ccsim.Stream
	}{
		{"injected panic", func() ccsim.Config {
			cfg := tinyCfg("mp3d")
			cfg.FaultInject = "mp3d/BASIC"
			return cfg
		}, nil},
		{"checker finding", func() ccsim.Config {
			cfg := mutationConfig(1)
			cfg.FaultInject = "wb-drop-word@mut/BASIC"
			cfg.Check = ccsim.NewChecker()
			return cfg
		}, wbDropStreams},
		{"max events observed", func() ccsim.Config {
			cfg := tinyCfg("mp3d")
			cfg.Extensions = ccsim.Ext{P: true, CW: true}
			cfg.MaxEvents = 20_000
			cfg.Telemetry = ccsim.NewTelemetry()
			cfg.Sharing = ccsim.NewSharingAnalytics()
			cfg.TraceBlocks = []uint64{0}
			return cfg
		}, nil},
		{"max events through a stream", func() ccsim.Config {
			cfg := ccsim.DefaultConfig()
			cfg.Procs = 4
			cfg.MaxEvents = 15_000
			return cfg
		}, func() []ccsim.Stream { return feedStreams(t, nil, 0) }},
	} {
		var dumps [2]string
		for i, w := range []io.Writer{nil, io.Discard} {
			cfg := c.cfg()
			cfg.TraceWriter = w
			var err error
			if c.streams != nil {
				_, err = ccsim.RunStreams(cfg, c.streams())
			} else {
				_, err = ccsim.Run(cfg)
			}
			f, ok := ccsim.AsFault(err)
			if !ok {
				t.Fatalf("%s: err = %v, want a fault", c.name, err)
			}
			f.Stack = nil
			var b strings.Builder
			f.Dump(&b)
			dumps[i] = b.String()
		}
		if !strings.Contains(dumps[0], "flight recorder") {
			t.Errorf("%s: dump has no message tail:\n%s", c.name, dumps[0])
		}
		if dumps[0] != dumps[1] {
			t.Errorf("%s: traced run dumps\n%s\n--- untraced ---\n%s", c.name, dumps[1], dumps[0])
		}
	}
}
