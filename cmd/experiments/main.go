// Command experiments regenerates the tables and figures of Dahlgren,
// Dubois & Stenström's ISCA 1994 evaluation. Each experiment prints the
// same rows or series the paper reports; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Usage:
//
//	experiments -exp all            # everything (14-22 s at scale 1.0 on 2 cores)
//	experiments -exp fig2           # Figure 2: relative exec times under RC
//	experiments -exp table2         # Table 2: cold/coherence miss rates
//	experiments -exp fig3           # Figure 3: sequential consistency
//	experiments -exp table3         # Table 3: mesh link-width sweep
//	experiments -exp fig4           # Figure 4: relative network traffic
//	experiments -exp table1         # Table 1: hardware cost inventory
//	experiments -exp sens-buffers   # §5.4: 4-entry write buffers
//	experiments -exp sens-cache     # §5.4: 16-KB SLC
//	experiments -scale 0.25 ...     # shrink the workloads for a quick pass
//	experiments -jobs 8 ...         # simulate up to 8 configurations at once
//	experiments -metrics out/ ...   # also write each run's result as JSON
//	experiments -log-json ...       # structured stderr logs as JSON
//	experiments -q ...              # quiet: suppress per-experiment timing
//	experiments -cpuprofile p.out   # write a runtime/pprof CPU profile
//	experiments -max-events 5000000000  # watchdog: bound every run's events
//	experiments -inject-fault mp3d/P+CW  # crash one run, prove containment
//	experiments -sharing ...        # sharing-pattern analytics per run, sweep aggregate at exit
//	experiments -cache-dir cache/   # durable result store: crash, re-run, resume
//	experiments -resume=false ...   # refresh the store, ignoring existing entries
//
// All experiments of one invocation share a scheduler: a configuration
// named by several experiments (every figure's BASIC baseline, Table 2's
// subset of Figure 2's grid) simulates exactly once. Worker count changes
// wall-clock time only — printed results are identical at any -jobs value.
//
// Results go to stdout; every diagnostic — timing, faults, the end-of-sweep
// counts — goes to stderr as structured log/slog records (text by default,
// JSON under -log-json), so stdout is byte-identical across -jobs values
// and verbosity levels.
//
// Sweeps are crash-contained: a run that panics, deadlocks or trips the
// watchdog renders as a FAULT cell in its tables while every other cell
// prints normally; the fault diagnostics go to stderr and the exit status
// is non-zero.
//
// Sweeps are also crash-safe and interruptible: -cache-dir persists every
// completed run's Result to an atomic, checksummed on-disk store, so a
// sweep killed at any instant resumes by re-running the same command —
// completed runs load from disk, only missing ones simulate, stdout stays
// byte-identical. SIGINT/SIGTERM drain gracefully (queued runs abandon,
// in-flight runs abort cleanly, finished results are kept) and exit 130
// with a resume hint; a second signal exits immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ccsim"
	"ccsim/exp"
	"ccsim/internal/prof"
	"ccsim/internal/store"
)

func main() { os.Exit(run()) }

// newLogger builds the process logger: slog to stderr, text for humans or
// JSON for machine ingestion, with -q raising the level past the
// per-experiment Info chatter.
func newLogger(jsonOut, quiet bool) *slog.Logger {
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: level}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

func run() (code int) {
	which := flag.String("exp", "all", "experiment: all, table1, fig2, table2, fig3, table3, fig4, sens-buffers, sens-cache, dir, assoc, scaling, cost")
	scale := flag.Float64("scale", 1.0, "workload problem-size multiplier")
	procs := flag.Int("procs", 16, "processor count")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max simulations to run concurrently")
	metrics := flag.String("metrics", "", "write each run's full result as JSON into this directory")
	logJSON := flag.Bool("log-json", false, "emit stderr diagnostics as JSON log records")
	quiet := flag.Bool("q", false, "quiet: suppress per-experiment timing lines (warnings and faults still log)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	injectFault := flag.String("inject-fault", "", `crash the run matching "workload/protocol" (e.g. mp3d/P+CW) to exercise fault containment`)
	liveCheck := flag.Bool("check", false, "attach the live coherence checker to every run (validation sweeps; slower, disables run dedup)")
	maxEvents := flag.Uint64("max-events", 0, "abort any single run after this many events (0 = unlimited)")
	deadline := flag.Int64("deadline", 0, "abort any single run past this simulated time in pclocks (0 = unlimited)")
	sharing := flag.Bool("sharing", false, "attach the sharing-pattern analyzer to every run; the sweep-wide aggregate prints to stderr at the end (disables run dedup)")
	cacheDir := flag.String("cache-dir", "", "persist every completed run's result into this durable store; an interrupted sweep resumes by re-running with the same directory")
	resume := flag.Bool("resume", true, "with -cache-dir, serve runs from existing store entries; -resume=false refreshes every entry")
	flag.Parse()

	logger := newLogger(*logJSON, *quiet)

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

	sched := exp.NewScheduler(*jobs, *metrics)
	sched.SetLogger(logger)
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			logger.Error("result store failed to open", "dir", *cacheDir, "err", err)
			return 1
		}
		sched.UseStore(st, *resume)
		logger.Info("result store open", "dir", st.Root(), "resume", *resume)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM drains the sweep (queued
	// runs abandon, in-flight runs abort at their next event batch, results
	// already completed — and their store entries — are kept); a second
	// signal exits immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		logger.Warn("shutdown requested: draining the sweep (signal again to exit now)", "signal", sig.String())
		sched.Interrupt()
		if _, ok := <-sigc; ok {
			os.Exit(130)
		}
	}()
	o := exp.Options{
		Scale: *scale, Procs: *procs, MetricsDir: *metrics, Sched: sched,
		InjectFault: *injectFault, MaxEvents: *maxEvents, Deadline: *deadline,
		Check: *liveCheck, Sharing: *sharing,
	}
	// finish emits the end-of-sweep artifacts on every exit path: the
	// sharing aggregate to stderr and the interruption summary.
	finish := func(code int) int {
		if *sharing {
			if rep := sched.SharingReport(); rep != nil {
				fmt.Fprintln(os.Stderr, "sweep-wide sharing-pattern aggregate:")
				rep.Fprint(os.Stderr)
			}
		}
		if sched.Interrupted() {
			hint := "re-run with -cache-dir DIR to make interrupted sweeps resumable"
			if *cacheDir != "" {
				hint = "re-run the same command to resume; completed runs load from " + *cacheDir
			}
			st := sched.Stats()
			logger.Warn("sweep interrupted before completion",
				"completed", st.Completed, "abandoned", st.Interrupted, "resume", hint)
			code = 130
		}
		return code
	}
	runExp := func(name string, fn func() error) error {
		t0 := time.Now()
		fmt.Printf("==== %s (scale %g, %d processors) ====\n", name, o.Scale, o.Procs)
		if err := fn(); err != nil {
			logger.Error("experiment failed", "experiment", name, "err", err)
			return err
		}
		// Timing goes to the stderr logger so stdout is byte-identical
		// across runs, -jobs values and verbosity levels (diffable results).
		fmt.Printf("---- %s done ----\n\n", name)
		logger.Info("experiment done", "experiment", name,
			"elapsed", time.Since(t0).Round(time.Millisecond).String())
		return nil
	}

	experiments := map[string]func() error{
		"table1": func() error {
			exp.FprintTable1(os.Stdout, o.Procs)
			return nil
		},
		"fig2": func() error {
			rows, err := exp.Figure2(o)
			if err != nil {
				return err
			}
			exp.FprintFigure2(os.Stdout, rows)
			return nil
		},
		"table2": func() error {
			rows, err := exp.Table2(o)
			if err != nil {
				return err
			}
			exp.FprintTable2(os.Stdout, rows)
			return nil
		},
		"fig3": func() error {
			rows, err := exp.Figure3(o)
			if err != nil {
				return err
			}
			exp.FprintFigure3(os.Stdout, rows)
			return nil
		},
		"table3": func() error {
			rows, err := exp.Table3(o)
			if err != nil {
				return err
			}
			exp.FprintTable3(os.Stdout, rows)
			return nil
		},
		"fig4": func() error {
			rows, err := exp.Figure4(o)
			if err != nil {
				return err
			}
			exp.FprintFigure4(os.Stdout, rows)
			return nil
		},
		"sens-buffers": func() error {
			rows, err := exp.SensBuffers(o)
			if err != nil {
				return err
			}
			exp.FprintSens(os.Stdout, rows, "4-entry buffers")
			return nil
		},
		"sens-cache": func() error {
			rows, err := exp.SensCache(o)
			if err != nil {
				return err
			}
			exp.FprintSens(os.Stdout, rows, "16-KB SLC")
			return nil
		},
		"dir": func() error {
			rows, err := exp.DirectoryStudy(o)
			if err != nil {
				return err
			}
			exp.FprintDirectory(os.Stdout, rows)
			return nil
		},
		"assoc": func() error {
			rows, err := exp.AssociativityStudy(o)
			if err != nil {
				return err
			}
			exp.FprintAssoc(os.Stdout, rows)
			return nil
		},
		"cost": func() error {
			rows, err := exp.CostPerformance(o, "mp3d")
			if err != nil {
				return err
			}
			exp.FprintCost(os.Stdout, "mp3d", rows)
			return nil
		},
		"scaling": func() error {
			rows, err := exp.ScalingStudy(o)
			if err != nil {
				return err
			}
			exp.FprintScaling(os.Stdout, rows)
			return nil
		},
	}

	order := []string{"table1", "fig2", "table2", "fig3", "table3", "fig4", "sens-buffers", "sens-cache", "dir", "assoc", "scaling", "cost"}
	if *which == "all" {
		for _, name := range order {
			// A failed experiment doesn't stop the sweep: faulted runs render
			// as FAULT cells and the rest of the tables still print.
			if runExp(name, experiments[name]) != nil {
				code = 1
			}
		}
		// The stderr logger, not stdout: results must be byte-identical at
		// any -jobs.
		st := sched.Stats()
		logger.Info("sweep complete", "unique", st.Unique, "dedup_hits", st.DedupHits,
			"completed", st.Completed, "failed", st.Failed, "workers", sched.Jobs())
		if reportFaults(logger, *logJSON, sched) {
			code = 1
		}
		return finish(code)
	}
	fn, ok := experiments[*which]
	if !ok {
		logger.Error("unknown experiment", "experiment", *which,
			"have", strings.Join(append(order, "all"), " "))
		return 2
	}
	if runExp(*which, fn) != nil {
		code = 1
	}
	if reportFaults(logger, *logJSON, sched) {
		code = 1
	}
	return finish(code)
}

// reportFaults logs every faulted run from the scheduler's ledger as one
// structured record carrying the run's identity (workload, protocol) and,
// for simulation faults, the fault's kind, component, simulated time and
// event count. In text mode the full diagnostic dump (snapshot, blocked
// agents, flight recorder) follows each record; under -log-json the
// records stay machine-parseable one-per-line and the dump is elided.
// Reports whether any run faulted. Everything goes to stderr: FAULT cells
// aside, a sweep with faults prints the same stdout as one without.
func reportFaults(logger *slog.Logger, jsonMode bool, sched *exp.Scheduler) bool {
	failed := sched.Failed()
	if len(failed) == 0 {
		return false
	}
	// Graceful-shutdown casualties are expected, not protocol bugs: condense
	// abandoned (never-started) and cancelled (in-flight, aborted cleanly)
	// runs into one summary line each instead of per-run dump spam.
	var abandoned, cancelled int
	kept := failed[:0]
	for _, f := range failed {
		if errors.Is(f.Err, exp.ErrInterrupted) {
			abandoned++
			continue
		}
		if sf, ok := ccsim.AsFault(f.Err); ok && sf.Kind == ccsim.FaultCanceled {
			cancelled++
			continue
		}
		kept = append(kept, f)
	}
	if abandoned > 0 {
		logger.Warn("runs abandoned by shutdown before starting", "count", abandoned)
	}
	if cancelled > 0 {
		logger.Warn("in-flight runs cancelled by shutdown", "count", cancelled)
	}
	if len(kept) == 0 {
		return true
	}
	failed = kept
	sort.Slice(failed, func(i, j int) bool {
		a, b := failed[i].Cfg, failed[j].Cfg
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.ProtocolName() < b.ProtocolName()
	})
	logger.Error("sweep had faulted runs", "count", len(failed))
	for _, f := range failed {
		attrs := []any{
			"run_id", exp.RunID(f.Cfg),
			"workload", f.Cfg.Workload,
			"protocol", f.Cfg.ProtocolName(),
		}
		sf, isFault := ccsim.AsFault(f.Err)
		if isFault {
			attrs = append(attrs,
				"kind", sf.Kind,
				"component", sf.Component,
				"sim_time", sf.Time,
				"events", sf.Steps,
				"cause", sf.Message,
			)
		} else {
			attrs = append(attrs, "err", f.Err.Error())
		}
		logger.Error("run faulted", attrs...)
		if isFault && !jsonMode {
			sf.Dump(os.Stderr)
		}
	}
	return true
}
