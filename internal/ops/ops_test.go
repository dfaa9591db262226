package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ccsim"
	"ccsim/exp"
	"ccsim/internal/sim"
)

// fakeSource is a Source with fixed stats, runs, failures and sharing
// report.
type fakeSource struct {
	mu      sync.Mutex
	stats   exp.SchedStats
	runs    []exp.LiveRun
	failed  []exp.FailedRun
	sharing *ccsim.SharingReport
}

func (f *fakeSource) Stats() exp.SchedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *fakeSource) LiveRuns() []exp.LiveRun {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]exp.LiveRun(nil), f.runs...)
}

func (f *fakeSource) Failed() []exp.FailedRun {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]exp.FailedRun(nil), f.failed...)
}

func (f *fakeSource) SharingReport() *ccsim.SharingReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sharing
}

// driveProbe runs a real engine with the probe attached so its counters
// hold simulation-realistic values.
func driveProbe(t *testing.T, p *ccsim.Progress) {
	t.Helper()
	e := sim.NewEngine()
	e.SetProgress(p)
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Progress()
		if n < 20000 {
			e.After(3, tick)
		}
	}
	e.After(1, tick)
	if f := e.RunWatched(&sim.Watchdog{}); f != nil {
		t.Fatalf("probe drive faulted: %v", f)
	}
}

func testSource(t *testing.T) *fakeSource {
	t.Helper()
	p := &ccsim.Progress{Label: "mp3d/P+CW"}
	driveProbe(t, p)
	engine := ccsim.QueueStats{
		Dispatched: 40000, WheelScheduled: 39000, OverflowScheduled: 1000,
		Migrations: 1000, Cohorts: 9000, CappedBatches: 6, MaxCohort: 32,
		WheelHighWater: 512, OverflowHighWater: 48,
	}
	engine.CohortSizeLog2[0] = 7000
	engine.CohortSizeLog2[2] = 2000
	dur := func(phase string, n uint64) exp.DurationStats {
		return exp.DurationStats{
			Phase: phase, Count: n, SumSeconds: float64(n) * 0.002,
			P50Seconds: 0.001, P95Seconds: 0.003, P99Seconds: 0.004, MaxSeconds: 0.005,
		}
	}
	failedCfg := ccsim.DefaultConfig()
	failedCfg.Workload = "water"
	return &fakeSource{
		stats: exp.SchedStats{
			Submitted: 275, Unique: 200, DedupHits: 75,
			Queued: 10, Running: 2, Completed: 180, Failed: 8,
			DroppedSpans: 3, Retries: 5, Interrupted: 4,
			Engine: &engine,
			Lifecycle: []exp.DurationStats{
				dur("queue_wait", 180), dur("simulate", 185),
				dur("retry_wait", 5),
				dur("store_put", 140), dur("metrics_write", 180),
			},
			Store: &exp.StoreStats{
				Dir: "/tmp/cache", Hits: 60, Misses: 140, Writes: 140, Quarantined: 2,
				Ops: []exp.DurationStats{
					dur("read", 60), dur("validate", 60), dur("write", 140),
				},
			},
		},
		runs: []exp.LiveRun{
			{ID: 1, RunID: "mp3d/P+CW/0a1b2c3d", Workload: "mp3d", Protocol: "P+CW", Progress: p},
			{ID: 2, Workload: "ocean", Protocol: "BASIC-SC", Progress: &ccsim.Progress{}},
		},
		failed: []exp.FailedRun{
			{Cfg: failedCfg, Err: &ccsim.SimFault{Kind: ccsim.FaultMaxEvents}},
		},
		sharing: &ccsim.SharingReport{
			Blocks: 11,
			Classes: []ccsim.SharingClassStats{
				{Class: "read-only", Blocks: 7, Reads: 700},
				{Class: "migratory", Blocks: 4, Reads: 40, Writes: 40,
					Misses: 12, Invalidations: 9, Updates: 2, Msgs: 60,
					CtlBytes: 480, DataBytes: 384, UpdateBytes: 24,
					MissLatencyP50: 30, MissLatencyP95: 60, MissLatencyP99: 70, MissLatencyMax: 81},
			},
		},
	}
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+$`)

// TestMetricsParses checks /metrics is well-formed exposition text and
// carries the scheduler gauges and per-run series.
func TestMetricsParses(t *testing.T) {
	h := NewServer(testSource(t)).Handler()
	code, body := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"ccsim_sched_submitted_total 275",
		"ccsim_sched_dedup_hits_total 75",
		"ccsim_sched_queued 10",
		"ccsim_sched_running 2",
		"ccsim_sched_completed_total 180",
		"ccsim_sched_faults_total 8",
		`ccsim_run_events_total{run="1",workload="mp3d",protocol="P+CW"} 20000`,
		`ccsim_run_sim_time_pclocks{run="1",workload="mp3d",protocol="P+CW"}`,
		`ccsim_run_events_per_second{run="1"`,
		`ccsim_run_heartbeat_age_seconds{run="2",workload="ocean",protocol="BASIC-SC"} 0`,
		"ccsim_dropped_spans_total 3",
		"ccsim_sched_retries_total 5",
		"ccsim_sched_interrupted_total 4",
		"ccsim_store_hits_total 60",
		"ccsim_store_misses_total 140",
		"ccsim_store_writes_total 140",
		"ccsim_store_quarantined_total 2",
		`ccsim_sharing_blocks{class="migratory"} 4`,
		`ccsim_sharing_misses_total{class="migratory"} 12`,
		`ccsim_sharing_reads_total{class="read-only"} 700`,
		`ccsim_sharing_traffic_bytes_total{class="migratory",kind="update"} 24`,
		`ccsim_sharing_miss_latency_pclocks{class="migratory",quantile="0.95"} 60`,
		"ccsim_engine_events_dispatched_total 40000",
		"ccsim_engine_wheel_scheduled_total 39000",
		"ccsim_engine_overflow_scheduled_total 1000",
		"ccsim_engine_migrations_total 1000",
		"ccsim_engine_cohorts_total 9000",
		"ccsim_engine_capped_batches_total 6",
		"ccsim_engine_wheel_occupancy_highwater 512",
		"ccsim_engine_overflow_highwater 48",
		"ccsim_engine_max_cohort_events 32",
		`ccsim_engine_cohort_size_events_bucket{le="1"} 7000`,
		`ccsim_engine_cohort_size_events_bucket{le="7"} 9000`,
		`ccsim_engine_cohort_size_events_bucket{le="+Inf"} 9000`,
		"ccsim_engine_cohort_size_events_sum 40000",
		"ccsim_engine_cohort_size_events_count 9000",
		`ccsim_sched_duration_seconds{phase="queue_wait",quantile="0.5"} 0.001`,
		`ccsim_sched_duration_seconds{phase="simulate",quantile="max"} 0.005`,
		`ccsim_sched_duration_seconds{phase="retry_wait",quantile="0.95"} 0.003`,
		`ccsim_sched_duration_seconds_sum{phase="simulate"} 0.37`,
		`ccsim_sched_duration_seconds_count{phase="retry_wait"} 5`,
		`ccsim_sched_duration_seconds_count{phase="store_put"} 140`,
		`ccsim_store_duration_seconds{op="write",quantile="0.99"} 0.004`,
		`ccsim_store_duration_seconds_sum{op="read"} 0.12`,
		`ccsim_store_duration_seconds_count{op="validate"} 60`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
}

// docSeries matches a backticked ccsim_* series name in the EXPERIMENTS.md
// catalogue table.
var docSeries = regexp.MustCompile("`(ccsim_[a-z0-9_]+)`")

// TestMetricsCatalogueInSync asserts the Prometheus catalogue table in
// EXPERIMENTS.md names exactly the series a fully-populated /metrics scrape
// serves — no undocumented series, no stale documentation.
func TestMetricsCatalogueInSync(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range docSeries.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no ccsim_* series documented in EXPERIMENTS.md")
	}

	// testSource populates every series family: scheduler counters and
	// gauges, live runs, dropped spans, and a sharing report.
	_, body := get(t, NewServer(testSource(t)).Handler(), "/metrics")
	served := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		served[name] = true
	}

	for name := range served {
		if !documented[name] {
			t.Errorf("series %s served by /metrics but missing from the EXPERIMENTS.md catalogue", name)
		}
	}
	for name := range documented {
		if !served[name] {
			t.Errorf("series %s documented in EXPERIMENTS.md but never served by a fully-populated /metrics", name)
		}
	}
}

// TestStatusJSON checks /status decodes and reports the driven probe's
// position.
func TestStatusJSON(t *testing.T) {
	h := NewServer(testSource(t)).Handler()
	code, body := get(t, h, "/status")
	if code != 200 {
		t.Fatalf("/status status %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st.Scheduler.Submitted != 275 || st.Scheduler.Failed != 8 {
		t.Fatalf("scheduler stats lost: %+v", st.Scheduler)
	}
	// The scheduler object carries exactly SchedStats' fields: a retired
	// key such as the distributed-job "Jobs" block must not come back for
	// stale dashboards or scrapers to read.
	var raw struct {
		Scheduler map[string]json.RawMessage `json:"scheduler"`
	}
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.Scheduler["Submitted"]; !ok {
		t.Fatalf("/status scheduler object has no Submitted key: %s", body)
	}
	if _, ok := raw.Scheduler["Jobs"]; ok {
		t.Fatalf("/status scheduler object still carries a Jobs key: %s", body)
	}
	if len(st.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(st.Runs))
	}
	r := st.Runs[0]
	if r.Workload != "mp3d" || r.Protocol != "P+CW" {
		t.Fatalf("run identity = %s/%s", r.Workload, r.Protocol)
	}
	if r.Events != 20000 {
		t.Fatalf("run events = %d, want 20000", r.Events)
	}
	if r.SimTimePclocks <= 0 {
		t.Fatalf("run sim time = %d, want > 0", r.SimTimePclocks)
	}
	if r.WallSeconds < 0 || r.HeartbeatAgeSeconds < 0 {
		t.Fatalf("negative wall/heartbeat: %+v", r)
	}
	if r.RunID != "mp3d/P+CW/0a1b2c3d" {
		t.Fatalf("run_id = %q, want scheduler-assigned id", r.RunID)
	}
	// Run 2 never started: all zeros, no NaN/Inf leakage into JSON
	// (json.Marshal would have failed on either).
	if st.Runs[1].Events != 0 || st.Runs[1].EventsPerSec != 0 {
		t.Fatalf("unstarted run reports progress: %+v", st.Runs[1])
	}
	if len(st.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(st.Failures))
	}
	f := st.Failures[0]
	if f.Workload != "water" || f.Kind != ccsim.FaultMaxEvents {
		t.Fatalf("failure row = %+v", f)
	}
	if !strings.HasPrefix(f.RunID, "water/") || f.Error == "" {
		t.Fatalf("failure row missing run_id/error: %+v", f)
	}
}

// TestDashboardServes checks /dashboard ships the embedded HTML page.
func TestDashboardServes(t *testing.T) {
	rec := httptest.NewRecorder()
	NewServer(testSource(t)).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/dashboard", nil))
	if rec.Code != 200 {
		t.Fatalf("/dashboard status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/dashboard content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"ccsim sweep dashboard", "/status"} {
		if !strings.Contains(body, want) {
			t.Errorf("/dashboard missing %q", want)
		}
	}
}

// TestPprofGating checks the profiling endpoints stay dark unless the
// server was built with EnablePprof.
func TestPprofGating(t *testing.T) {
	srv := NewServer(testSource(t))
	if code, _ := get(t, srv.Handler(), "/debug/pprof/"); code != 404 {
		t.Fatalf("/debug/pprof/ status %d without opt-in, want 404", code)
	}
	srv.EnablePprof()
	code, body := get(t, srv.Handler(), "/debug/pprof/")
	if code != 200 {
		t.Fatalf("/debug/pprof/ status %d after EnablePprof", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profile listing")
	}
	if code, _ := get(t, srv.Handler(), "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

// TestServeEndToEnd exercises the real listener path: Serve on :0, scrape
// both endpoints over TCP, Close.
func TestServeEndToEnd(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("no bound address")
	}
	for _, path := range []string{"/", "/metrics", "/status", "/sharing"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}
	if resp, err := http.Get("http://" + srv.Addr() + "/nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("GET /nope: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestScrapeDuringSweep scrapes a live scheduler mid-sweep — the
// acceptance path: every live run visible with advancing simulated time.
// Run under -race this also proves scrape vs simulation safety.
func TestScrapeDuringSweep(t *testing.T) {
	sched := exp.NewScheduler(2, "")
	h := NewServer(sched).Handler()
	var pends []*exp.Pending
	for _, wl := range []string{"mp3d", "ocean"} {
		for _, ext := range []ccsim.Ext{{}, {P: true}, {M: true}, {CW: true}} {
			cfg := ccsim.DefaultConfig()
			cfg.Workload = wl
			// Big enough that the sweep outlasts scheduling hiccups of the
			// scraping goroutine even on a loaded machine; the loop below
			// stops at first drain, so the typical cost stays low.
			cfg.Scale = 0.25
			cfg.Procs = 8
			cfg.Extensions = ext
			pends = append(pends, sched.Submit(cfg))
		}
	}
	// Scrape continuously until the sweep drains.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, p := range pends {
			p.Wait() //nolint:errcheck // failures checked below
		}
	}()
	sawLive := false
	for {
		select {
		case <-done:
		default:
		}
		code, body := get(t, h, "/status")
		if code != 200 {
			t.Fatalf("/status status %d", code)
		}
		var st Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("mid-sweep /status not JSON: %v", err)
		}
		if len(st.Runs) > 0 {
			sawLive = true
		}
		if code, _ := get(t, h, "/metrics"); code != 200 {
			t.Fatalf("/metrics status %d", code)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	for i, p := range pends {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !sawLive {
		t.Error("scrapes never observed a live run during an 8-run sweep")
	}
	if st := sched.Stats(); st.Completed != 8 || st.Running != 0 {
		t.Fatalf("post-sweep stats: %+v", st)
	}
}
