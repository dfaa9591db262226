// Package ops is the sweep's live operations plane: an opt-in HTTP server
// exposing the experiment scheduler's state while a sweep runs. Every
// endpoint is read-only and safe to scrape at any rate:
//
//   - /metrics — Prometheus text exposition: scheduler gauges
//     (queued/running/completed/failed/dedup-hits), the fault and
//     dropped-span counters, per-live-run series (events executed,
//     simulated time, events/sec, heartbeat age), engine queue-internals
//     aggregates (ccsim_engine_*), scheduler lifecycle and store latency
//     summaries (ccsim_sched_duration_seconds,
//     ccsim_store_duration_seconds), and per-sharing-class series when a
//     sweep runs with analytics on. The full series catalogue lives in
//     EXPERIMENTS.md (a test keeps it in sync).
//   - /status — one JSON document: the same scheduler counters plus a full
//     per-run table, including each run's watchdog heartbeat age, so a run
//     stuck inside a single event (invisible to the event-counting
//     watchdog) shows up before anything kills it — plus the failed-run
//     ledger, each entry tagged with its run_id.
//   - /sharing — the sweep-wide sharing-pattern aggregate as JSON (null
//     until an analyzed run completes).
//   - /dashboard — a single self-contained auto-refreshing HTML page
//     rendering /status live: progress bar, per-run table with events/sec
//     sparklines, queue and latency histograms, fault ledger.
//   - /debug/pprof/ — the standard net/http/pprof handlers, mounted only
//     when EnablePprof was called (the CLI's -pprof flag), for continuous
//     CPU/heap/goroutine profiling of live sweeps.
//
// Every read goes through lock-free Progress probes or the scheduler's
// short-lived mutex; scraping never blocks a simulation.
package ops

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"ccsim"
	"ccsim/exp"
)

// Source is the scheduler-shaped state the server scrapes. *exp.Scheduler
// implements it; tests substitute fakes.
type Source interface {
	Stats() exp.SchedStats
	LiveRuns() []exp.LiveRun
	// SharingReport returns the sweep-wide sharing-pattern aggregate, nil
	// when no analyzed run has completed.
	SharingReport() *ccsim.SharingReport
	// Failed returns the ledger of runs that completed with an error.
	Failed() []exp.FailedRun
}

// Server serves the ops endpoints for one Source.
type Server struct {
	src     Source
	ln      net.Listener
	srv     *http.Server
	pprofOn bool
}

// NewServer returns a server for src; call Handler to mount it yourself or
// Start to listen in the background.
func NewServer(src Source) *Server {
	return &Server{src: src}
}

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/ on
// the handler built afterwards. Opt-in (the CLI's -pprof flag) because the
// profile endpoints expose build and runtime internals and can run the
// CPU profiler on demand. Call before Handler or Start.
func (s *Server) EnablePprof() { s.pprofOn = true }

// Start begins listening on addr (e.g. ":8099"; ":0" picks a free port)
// and serves in a background goroutine until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ops: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// Addr returns the bound listen address ("127.0.0.1:8099"), or "" before
// Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight scrapes are abandoned; the endpoints
// are stateless so nothing is lost.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

//go:embed dashboard.html
var dashboardHTML []byte

// Handler returns the ops mux: /metrics, /status, /sharing, /dashboard,
// a plain-text index at /, and — when EnablePprof was called — the
// net/http/pprof handlers under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/status", s.status)
	mux.HandleFunc("/sharing", s.sharing)
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(dashboardHTML) //nolint:errcheck // client hangup is benign
	})
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "ccsim sweep ops plane\n/metrics    Prometheus text\n/status     JSON run table\n/sharing    JSON sharing-pattern aggregate\n/dashboard  live HTML sweep dashboard\n")
		if s.pprofOn {
			fmt.Fprint(w, "/debug/pprof/  live profiling (pprof)\n")
		}
	})
	return mux
}

// RunStatus is one row of /status's run table.
type RunStatus struct {
	ID       uint64 `json:"id"`
	RunID    string `json:"run_id"`
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	// Events and SimTimePclocks are the run's position, published by the
	// engine every few thousand events.
	Events         uint64 `json:"events"`
	SimTimePclocks int64  `json:"sim_time_pclocks"`
	// EventsPerSec is the run's average event rate since its start.
	EventsPerSec float64 `json:"events_per_sec"`
	// WallSeconds is the run's age; HeartbeatAgeSeconds is the time since
	// the engine last published. A heartbeat age far above WallSeconds'
	// growth rate means the run is wedged inside one event.
	WallSeconds         float64 `json:"wall_seconds"`
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
}

// FailureStatus is one row of /status's fault ledger.
type FailureStatus struct {
	RunID    string `json:"run_id"`
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	// Kind is the structured fault kind ("max-events", "panic", ...) or
	// "error" for failures that are not simulation faults (e.g. a
	// metrics-write error).
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// Status is the /status document.
type Status struct {
	UnixNanos int64           `json:"unix_nanos"`
	Scheduler exp.SchedStats  `json:"scheduler"`
	Runs      []RunStatus     `json:"runs"`
	Failures  []FailureStatus `json:"failures"`
}

// snapshot assembles the full status view at one instant.
func (s *Server) snapshot() Status {
	now := time.Now()
	live := s.src.LiveRuns()
	st := Status{
		UnixNanos: now.UnixNano(),
		Scheduler: s.src.Stats(),
		Runs:      make([]RunStatus, 0, len(live)),
	}
	for _, lr := range live {
		ps := lr.Progress.Snapshot()
		rs := RunStatus{
			ID:             lr.ID,
			RunID:          lr.RunID,
			Workload:       lr.Workload,
			Protocol:       lr.Protocol,
			Events:         ps.Events,
			SimTimePclocks: ps.SimTime,
			EventsPerSec:   ps.EventsPerSec(),
		}
		if ps.Start > 0 {
			rs.WallSeconds = now.Sub(time.Unix(0, ps.Start)).Seconds()
		}
		if age := ps.HeartbeatAge(now); age > 0 {
			rs.HeartbeatAgeSeconds = age.Seconds()
		}
		st.Runs = append(st.Runs, rs)
	}
	for _, f := range s.src.Failed() {
		fs := FailureStatus{
			RunID:    exp.RunID(f.Cfg),
			Workload: f.Cfg.Workload,
			Protocol: f.Cfg.ProtocolName(),
			Kind:     "error",
		}
		if f.Err != nil {
			fs.Error = f.Err.Error()
			if sf, ok := ccsim.AsFault(f.Err); ok {
				fs.Kind = sf.Kind
			}
		}
		st.Failures = append(st.Failures, fs)
	}
	return st
}

func (s *Server) status(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot()) //nolint:errcheck // client hangup mid-scrape is benign
}

// sharing serves the sweep-wide sharing-pattern aggregate. The report is
// null until at least one run with analytics attached completes.
func (s *Server) sharing(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	doc := struct {
		UnixNanos int64                `json:"unix_nanos"`
		Sharing   *ccsim.SharingReport `json:"sharing"`
	}{time.Now().UnixNano(), s.src.SharingReport()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // client hangup mid-scrape is benign
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.snapshot()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	sch := st.Scheduler
	counter("ccsim_sched_submitted_total", "Simulations submitted, including run-cache hits.", sch.Submitted)
	counter("ccsim_sched_unique_total", "Distinct configurations actually simulated.", sch.Unique)
	counter("ccsim_sched_dedup_hits_total", "Submissions served by the run cache without a new simulation.", sch.DedupHits)
	counter("ccsim_sched_completed_total", "Runs finished without error.", sch.Completed)
	counter("ccsim_sched_faults_total", "Runs finished with an error: contained panics, watchdog aborts, metrics-write failures.", sch.Failed)
	counter("ccsim_dropped_spans_total", "Telemetry spans discarded by span-buffer overflow across completed runs; nonzero means timelines undercount.", sch.DroppedSpans)
	counter("ccsim_sched_interrupted_total", "Runs abandoned by graceful shutdown before they started.", sch.Interrupted)
	gauge("ccsim_sched_queued", "Runs waiting for a worker slot.", sch.Queued)
	gauge("ccsim_sched_running", "Runs executing right now.", sch.Running)

	if sch.Store != nil {
		counter("ccsim_store_hits_total", "Runs served from the durable result store without simulating.", sch.Store.Hits)
		counter("ccsim_store_misses_total", "Store lookups that fell through to a real simulation.", sch.Store.Misses)
		counter("ccsim_store_writes_total", "Results persisted to the durable store.", sch.Store.Writes)
		counter("ccsim_store_quarantined_total", "Corrupt or truncated store entries moved to the quarantine directory and re-run.", sch.Store.Quarantined)
	}

	if eng := sch.Engine; eng != nil {
		counter("ccsim_engine_events_dispatched_total", "Events executed by simulated runs' event engines (store hits excluded).", eng.Dispatched)
		counter("ccsim_engine_wheel_scheduled_total", "Events scheduled directly into a calendar-wheel bucket.", eng.WheelScheduled)
		counter("ccsim_engine_overflow_scheduled_total", "Events scheduled beyond the wheel window into the overflow heap.", eng.OverflowScheduled)
		counter("ccsim_engine_migrations_total", "Overflow events migrated into the wheel as the window reached them.", eng.Migrations)
		counter("ccsim_engine_cohorts_total", "Same-timestamp dispatch batches executed.", eng.Cohorts)
		counter("ccsim_engine_capped_batches_total", "Dispatch batches stopped at the watchdog's event budget with the cohort still non-empty.", eng.CappedBatches)
		gauge("ccsim_engine_wheel_occupancy_highwater", "Peak number of events resident in wheel buckets in any single run.", eng.WheelHighWater)
		gauge("ccsim_engine_overflow_highwater", "Peak overflow-heap depth in any single run.", eng.OverflowHighWater)
		gauge("ccsim_engine_max_cohort_events", "Largest single dispatch batch across simulated runs.", int(eng.MaxCohort))
		const ch = "ccsim_engine_cohort_size_events"
		fmt.Fprintf(&b, "# HELP %s Distribution of same-timestamp cohort sizes (log2 buckets; cumulative histogram).\n# TYPE %s histogram\n", ch, ch)
		var cum uint64
		for i, n := range eng.CohortSizeLog2 {
			cum += n
			fmt.Fprintf(&b, "%s_bucket{le=%s} %d\n", ch, labelValue(fmt.Sprint(ccsim.CohortBucketMax(i))), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", ch, cum)
		fmt.Fprintf(&b, "%s_sum %d\n", ch, eng.Dispatched)
		fmt.Fprintf(&b, "%s_count %d\n", ch, eng.Cohorts)
	}

	// durations renders a []DurationStats as one Prometheus summary family
	// with quantile samples plus _sum/_count, skipping phases that never
	// ran (and the whole family when nothing has).
	durations := func(name, help, label string, ds []exp.DurationStats) {
		any := false
		for _, d := range ds {
			if d.Count > 0 {
				any = true
				break
			}
		}
		if !any {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		for _, d := range ds {
			if d.Count == 0 {
				continue
			}
			for _, qv := range []struct {
				q string
				v float64
			}{{"0.5", d.P50Seconds}, {"0.95", d.P95Seconds}, {"0.99", d.P99Seconds}, {"max", d.MaxSeconds}} {
				fmt.Fprintf(&b, "%s{%s=%s,quantile=%s} %g\n", name, label, labelValue(d.Phase), labelValue(qv.q), qv.v)
			}
		}
		for _, d := range ds {
			if d.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s_sum{%s=%s} %g\n", name, label, labelValue(d.Phase), d.SumSeconds)
			fmt.Fprintf(&b, "%s_count{%s=%s} %d\n", name, label, labelValue(d.Phase), d.Count)
		}
	}
	durations("ccsim_sched_duration_seconds",
		"Per-run lifecycle decomposition: time spent per scheduler phase (bucketed upper-bound quantiles; max exact).",
		"phase", sch.Lifecycle)
	if sch.Store != nil {
		durations("ccsim_store_duration_seconds",
			"Durable-store operation latencies: entry reads, validation, and atomic commits (bucketed upper-bound quantiles; max exact).",
			"op", sch.Store.Ops)
	}

	perRun := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	if len(st.Runs) > 0 {
		perRun("ccsim_run_events_total", "Simulation events executed by a live run.", "counter")
		for _, r := range st.Runs {
			fmt.Fprintf(&b, "ccsim_run_events_total{%s} %d\n", runLabels(r), r.Events)
		}
		perRun("ccsim_run_sim_time_pclocks", "A live run's current simulated time.", "gauge")
		for _, r := range st.Runs {
			fmt.Fprintf(&b, "ccsim_run_sim_time_pclocks{%s} %d\n", runLabels(r), r.SimTimePclocks)
		}
		perRun("ccsim_run_events_per_second", "A live run's average event rate since start.", "gauge")
		for _, r := range st.Runs {
			fmt.Fprintf(&b, "ccsim_run_events_per_second{%s} %g\n", runLabels(r), r.EventsPerSec)
		}
		perRun("ccsim_run_heartbeat_age_seconds", "Seconds since a live run's engine last published progress.", "gauge")
		for _, r := range st.Runs {
			fmt.Fprintf(&b, "ccsim_run_heartbeat_age_seconds{%s} %g\n", runLabels(r), r.HeartbeatAgeSeconds)
		}
	}

	if rep := s.src.SharingReport(); rep != nil && len(rep.Classes) > 0 {
		perClass := func(name, help, typ string, v func(c ccsim.SharingClassStats) uint64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for _, c := range rep.Classes {
				fmt.Fprintf(&b, "%s{class=%s} %d\n", name, labelValue(c.Class), v(c))
			}
		}
		perClass("ccsim_sharing_blocks", "Blocks carrying each sharing-pattern label across analyzed runs.", "gauge",
			func(c ccsim.SharingClassStats) uint64 { return c.Blocks })
		perClass("ccsim_sharing_reads_total", "Processor reads attributed to each sharing class.", "counter",
			func(c ccsim.SharingClassStats) uint64 { return c.Reads })
		perClass("ccsim_sharing_writes_total", "Processor writes attributed to each sharing class.", "counter",
			func(c ccsim.SharingClassStats) uint64 { return c.Writes })
		perClass("ccsim_sharing_misses_total", "SLC demand read misses attributed to each sharing class.", "counter",
			func(c ccsim.SharingClassStats) uint64 { return c.Misses })
		perClass("ccsim_sharing_invalidations_total", "Coherence invalidations attributed to each sharing class.", "counter",
			func(c ccsim.SharingClassStats) uint64 { return c.Invalidations })
		perClass("ccsim_sharing_updates_total", "Write-update deliveries attributed to each sharing class.", "counter",
			func(c ccsim.SharingClassStats) uint64 { return c.Updates })

		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n",
			"ccsim_sharing_traffic_bytes_total", "Network bytes attributed to each sharing class, by message kind.",
			"ccsim_sharing_traffic_bytes_total")
		for _, c := range rep.Classes {
			for _, kb := range []struct {
				kind string
				v    uint64
			}{{"control", c.CtlBytes}, {"data", c.DataBytes}, {"update", c.UpdateBytes}} {
				fmt.Fprintf(&b, "ccsim_sharing_traffic_bytes_total{class=%s,kind=%s} %d\n",
					labelValue(c.Class), labelValue(kb.kind), kb.v)
			}
		}

		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n",
			"ccsim_sharing_miss_latency_pclocks", "Demand-miss service-time distribution per sharing class (bucketed upper bounds; max is exact).",
			"ccsim_sharing_miss_latency_pclocks")
		for _, c := range rep.Classes {
			for _, qv := range []struct {
				q string
				v int64
			}{{"0.5", c.MissLatencyP50}, {"0.95", c.MissLatencyP95}, {"0.99", c.MissLatencyP99}, {"max", c.MissLatencyMax}} {
				fmt.Fprintf(&b, "ccsim_sharing_miss_latency_pclocks{class=%s,quantile=%s} %d\n",
					labelValue(c.Class), labelValue(qv.q), qv.v)
			}
		}
	}
	w.Write([]byte(b.String())) //nolint:errcheck // client hangup mid-scrape is benign
}

func runLabels(r RunStatus) string {
	return fmt.Sprintf(`run="%d",workload=%s,protocol=%s`,
		r.ID, labelValue(r.Workload), labelValue(r.Protocol))
}

// labelValue quotes a Prometheus label value, escaping backslash, quote
// and newline per the text exposition format.
func labelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return `"` + v + `"`
}
