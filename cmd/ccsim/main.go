// Command ccsim runs a single simulation of the paper's machine and prints
// its measurements.
//
// Examples:
//
//	ccsim -workload mp3d                         # BASIC under RC
//	ccsim -workload mp3d -ext P+CW               # prefetching + competitive update
//	ccsim -workload cholesky -ext P+M -sc        # under sequential consistency
//	ccsim -workload ocean -net mesh -link 16     # 16-bit wormhole mesh
//	ccsim -workload lu -slc 512 -scale 0.5       # 16-KB SLC, half-size problem
//	ccsim -workload water -verify                # data-value-checked run
//	ccsim -workload mp3d -trace - -traceaddrs 0  # protocol trace for one block
//	ccsim -workload lu -dump lu.trace            # export the kernel as a trace file
//	ccsim -in lu.trace -ext P                    # replay a trace file
//	ccsim -workload mp3d -json                   # machine-readable result
//	ccsim -workload mp3d -timeline t.json        # Perfetto/Chrome trace timeline
//	ccsim -workload mp3d -max-events 5000000000  # watchdog event ceiling
//	ccsim -workload mp3d -log-json               # JSON stderr diagnostics
//
// Diagnostics are structured log/slog records on stderr (text by default,
// JSON under -log-json); results stay on stdout. A run that panics,
// deadlocks or exceeds a watchdog bound exits non-zero with a structured
// fault record naming the workload, protocol, component and simulated
// time, followed in text mode by the full diagnostic dump: pending
// transactions per cache, directory state, blocked
// processors/locks/barriers, and the flight-recorder tail of recent
// protocol messages.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ccsim"
	"ccsim/internal/prof"
)

func parseExt(s string) (ccsim.Ext, error) {
	var e ccsim.Ext
	if s == "" || strings.EqualFold(s, "basic") {
		return e, nil
	}
	for _, part := range strings.Split(s, "+") {
		switch strings.ToUpper(strings.TrimSpace(part)) {
		case "P":
			e.P = true
		case "M":
			e.M = true
		case "CW":
			e.CW = true
		default:
			return e, fmt.Errorf("unknown extension %q (want P, M, CW, e.g. P+CW)", part)
		}
	}
	return e, nil
}

// writeSide writes one side-channel artifact to path ("-" = stderr),
// logging and returning false on failure. A file is closed whether or not
// the write succeeded.
func writeSide(logger *slog.Logger, what, path string, write func(io.Writer) error) bool {
	var err error
	if path == "-" {
		err = write(os.Stderr)
	} else {
		var f *os.File
		if f, err = os.Create(path); err == nil {
			err = errors.Join(write(f), f.Close())
		}
	}
	if err != nil {
		logger.Error(what+" export failed", "err", err)
		return false
	}
	return true
}

// main delegates to run so deferred profile flushing survives every exit
// path (os.Exit would skip it).
func main() { os.Exit(run()) }

func run() (code int) {
	workload := flag.String("workload", "mp3d", "kernel: "+strings.Join(ccsim.Workloads(), ", "))
	ext := flag.String("ext", "BASIC", "protocol extensions: BASIC, P, M, CW, P+CW, P+M, CW+M, P+CW+M")
	sc := flag.Bool("sc", false, "sequential consistency (default: release consistency)")
	netKind := flag.String("net", "uniform", "network: uniform or mesh")
	link := flag.Int("link", 64, "mesh link width in bits (64, 32, 16)")
	procs := flag.Int("procs", 16, "processor count")
	scale := flag.Float64("scale", 1.0, "workload problem-size multiplier")
	slc := flag.Int("slc", 0, "SLC size in 32-byte blocks (0 = infinite)")
	flwb := flag.Int("flwb", 0, "FLWB entries (0 = paper default)")
	slwb := flag.Int("slwb", 0, "SLWB entries (0 = paper default)")
	in := flag.String("in", "", "run a trace file (see ccsim.ParseTrace) instead of a named workload")
	dump := flag.String("dump", "", "write the selected workload as a trace file and exit")
	verify := flag.Bool("verify", false, "check the data-value invariant of coherence during the run")
	liveCheck := flag.Bool("check", false, "attach the live coherence checker: shadow-state invariants asserted at every protocol transition (implies -verify)")
	traceOut := flag.String("trace", "", "stream a protocol trace to this file (\"-\" = stderr)")
	traceAddrs := flag.String("traceaddrs", "", "comma-separated byte addresses restricting the trace")
	jsonOut := flag.Bool("json", false, "print the full result as JSON instead of the text report")
	timeline := flag.String("timeline", "", "write a Perfetto/Chrome trace-event timeline to this file (\"-\" = stderr)")
	sharingOut := flag.String("sharing", "", "attach the sharing-pattern analyzer and write its per-class report to this file (\"-\" = stderr); also lands in -json output")
	maxEvents := flag.Uint64("max-events", 0, "abort after this many simulation events (0 = unlimited)")
	deadline := flag.Int64("deadline", 0, "abort past this simulated time in pclocks (0 = unlimited)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	logJSON := flag.Bool("log-json", false, "emit stderr diagnostics as JSON log records")
	flag.Parse()

	// Diagnostics are structured slog records on stderr; results stay on
	// stdout untouched.
	hopts := &slog.HandlerOptions{Level: slog.LevelInfo}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)
	if *traceAddrs != "" && *traceOut == "" {
		logger.Error("-traceaddrs requires -trace: it restricts the protocol trace to the given addresses")
		return 2
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		logger.Error("profiling setup failed", "err", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			logger.Error("profile write failed", "err", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	cfg := ccsim.DefaultConfig()
	cfg.Workload = *workload
	cfg.Procs = *procs
	cfg.Scale = *scale
	cfg.SC = *sc
	cfg.SLCBlocks = *slc
	cfg.FLWBEntries = *flwb
	cfg.SLWBEntries = *slwb
	cfg.LinkBits = *link
	cfg.VerifyData = *verify
	if *liveCheck {
		cfg.Check = ccsim.NewChecker()
	}
	cfg.MaxEvents = *maxEvents
	cfg.Deadline = *deadline
	switch *netKind {
	case "uniform":
		cfg.Net = ccsim.Uniform
	case "mesh":
		cfg.Net = ccsim.Mesh
	default:
		logger.Error("unknown network", "net", *netKind)
		return 2
	}
	e, err := parseExt(*ext)
	if err != nil {
		logger.Error("bad -ext", "err", err)
		return 2
	}
	cfg.Extensions = e
	if *timeline != "" {
		cfg.Telemetry = ccsim.NewTelemetry()
	}
	if *sharingOut != "" {
		cfg.Sharing = ccsim.NewSharingAnalytics()
	}

	if *traceOut != "" {
		// The run renders the trace on its own goroutine and writes it a
		// batch of events at a time, every batch before Run returns, so
		// stderr needs no buffer: its lines arrive a batch at a time,
		// between any log records. A trace file is buffered, and a write,
		// flush or close failure fails the command, since a truncated trace
		// is a lost result.
		var w io.Writer = os.Stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				logger.Error("trace file", "err", err)
				return 1
			}
			bw := bufio.NewWriter(f)
			defer func() {
				if err := errors.Join(bw.Flush(), f.Close()); err != nil {
					logger.Error("trace file", "err", err)
					if code == 0 {
						code = 1
					}
				}
			}()
			w = bw
		}
		cfg.TraceWriter = w
		if *traceAddrs != "" {
			for _, part := range strings.Split(*traceAddrs, ",") {
				var a uint64
				if _, err := fmt.Sscanf(strings.TrimSpace(part), "%v", &a); err != nil {
					logger.Error("bad trace address", "addr", part)
					return 2
				}
				cfg.TraceBlocks = append(cfg.TraceBlocks, a)
			}
		}
	}

	if *dump != "" {
		ops, err := ccsim.WorkloadOps(*workload, *procs, *scale)
		if err != nil {
			logger.Error("workload export failed", "workload", *workload, "err", err)
			return 1
		}
		f, err := os.Create(*dump)
		if err != nil {
			logger.Error("workload export failed", "err", err)
			return 1
		}
		if err := ccsim.WriteTrace(f, ops); err != nil {
			logger.Error("workload export failed", "err", err)
			return 1
		}
		if err := f.Close(); err != nil {
			logger.Error("workload export failed", "err", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *dump)
		return 0
	}

	// Graceful shutdown: the first SIGINT/SIGTERM fires the cooperative
	// cancel flag and the watchdog aborts the run cleanly at its next event
	// batch; a second signal exits immediately.
	cancel := &ccsim.Cancel{}
	cfg.Cancel = cancel
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig := <-sigc
		logger.Warn("shutdown requested: cancelling the run (signal again to exit now)", "signal", sig.String())
		cancel.Cancel()
		<-sigc
		os.Exit(130)
	}()

	var r *ccsim.Result
	if *in != "" {
		f, ferr := os.Open(*in)
		if ferr != nil {
			logger.Error("trace input", "err", ferr)
			return 1
		}
		streams, perr := ccsim.ParseTrace(f)
		f.Close()
		if perr != nil {
			logger.Error("trace input", "file", *in, "err", perr)
			return 1
		}
		cfg.Procs = len(streams)
		cfg.Workload = "trace:" + *in
		r, err = ccsim.RunStreams(cfg, streams)
	} else {
		r, err = ccsim.Run(cfg)
	}
	if err != nil {
		// A structured fault logs as one machine-parseable record carrying
		// its identity fields; in text mode the full diagnostic dump —
		// snapshot, blocked agents, flight-recorder tail — follows it.
		if f, ok := ccsim.AsFault(err); ok {
			if f.Kind == ccsim.FaultCanceled {
				// Not a protocol bug: the user asked the run to stop. One
				// record, no diagnostic dump, the conventional 128+SIGINT exit.
				logger.Warn("run cancelled before completion",
					"workload", cfg.Workload,
					"protocol", cfg.ProtocolName(),
					"sim_time", f.Time,
					"events", f.Steps,
				)
				return 130
			}
			logger.Error("simulation fault",
				"workload", cfg.Workload,
				"protocol", cfg.ProtocolName(),
				"kind", f.Kind,
				"component", f.Component,
				"sim_time", f.Time,
				"events", f.Steps,
				"cause", f.Message,
			)
			if !*logJSON {
				f.Dump(os.Stderr)
			}
		} else {
			logger.Error("run failed", "workload", cfg.Workload, "err", err)
		}
		return 1
	}

	// The checker's verdict goes to stderr so stdout stays byte-identical
	// with and without -check.
	if cfg.Check != nil {
		logger.Info("live coherence checker passed", "assertions", cfg.Check.Checks())
	}

	// Span-buffer overflow silently truncates timelines and phase totals;
	// make it loud.
	if n := cfg.Telemetry.DroppedSpans(); n > 0 {
		logger.Warn("telemetry span buffer overflowed; timeline and phase totals undercount",
			"dropped_spans", n, "kept_spans", cfg.Telemetry.KeptSpans())
	}

	// The timeline and the sharing report go to their own files (or
	// stderr), never stdout: a run with them on stays byte-identical on
	// stdout to one without.
	if *timeline != "" && !writeSide(logger, "timeline", *timeline, cfg.Telemetry.WriteTimeline) {
		return 1
	}
	if *sharingOut != "" && !writeSide(logger, "sharing report", *sharingOut, cfg.Sharing.Report().Fprint) {
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if jerr := enc.Encode(r); jerr != nil {
			logger.Error("result encoding failed", "err", jerr)
			return 1
		}
		return 0
	}

	n := float64(r.Procs)
	fmt.Printf("workload    %s (scale %g)\n", r.Workload, cfg.Scale)
	fmt.Printf("protocol    %s on %s, %d processors\n", r.Protocol, r.Network, r.Procs)
	fmt.Printf("exec time   %d pclocks (%.2f ms simulated)\n", r.ExecTime, float64(r.ExecTime)*10e-6)
	fmt.Printf("per-processor time decomposition (pclocks):\n")
	fmt.Printf("  busy      %12.0f\n", float64(r.Busy)/n)
	fmt.Printf("  read      %12.0f\n", float64(r.ReadStall)/n)
	fmt.Printf("  write     %12.0f\n", float64(r.WriteStall)/n)
	fmt.Printf("  acquire   %12.0f  (of which barrier %0.f)\n", float64(r.AcquireStall)/n, float64(r.BarrierStall)/n)
	fmt.Printf("  release   %12.0f\n", float64(r.ReleaseStall)/n)
	fmt.Printf("references  %d reads, %d writes\n", r.Reads, r.Writes)
	fmt.Printf("miss rates  cold %.2f%%  coherence %.2f%%  replacement %.2f%%\n",
		r.ColdMissRate(), r.CoherenceMissRate(), r.ReplacementMissRate())
	fmt.Printf("miss lat.   %.0f pclocks average demand read miss (P50 <= %d, P95 <= %d, P99 <= %d, max %d)\n",
		r.AvgReadMissLatency, r.MissLatencyP50, r.MissLatencyP95, r.MissLatencyP99, r.MissLatencyMax)
	fmt.Printf("traffic     %d bytes in %d messages (updates %d B, data %d B)\n",
		r.TrafficBytes, r.TrafficMsgs, r.UpdateBytes, r.DataBytes)
	if e.P {
		fmt.Printf("prefetch    issued %d, useful %d, partial hits %d, nacked %d\n",
			r.PrefetchesIssued, r.PrefetchesUseful, r.PrefetchPartHits, r.PrefetchesNacked)
	}
	if e.M {
		fmt.Printf("migratory   %d detections, %d reverts, %d exclusive supplies\n",
			r.MigDetections, r.MigReverts, r.ExclSupplies)
	}
	if e.CW {
		fmt.Printf("updates     %d update requests, %d write-cache read hits\n",
			r.UpdateRequests, r.WriteCacheHits)
	}
	fmt.Printf("ownership   %d ownership requests\n", r.OwnershipRequests)
	fmt.Printf("event queue %d dispatched (%d wheel, %d migrated via overflow), %d cohorts (max %d), wheel high-water %d\n",
		r.Queue.Dispatched, r.Queue.WheelScheduled, r.Queue.Migrations,
		r.Queue.Cohorts, r.Queue.MaxCohort, r.Queue.WheelHighWater)
	return 0
}
