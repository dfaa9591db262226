package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ccsim"
	"ccsim/internal/stats"
	"ccsim/internal/store"
)

// ErrInterrupted marks a run abandoned before execution because the sweep
// was interrupted (Scheduler.Interrupt): no worker ever picked it up. A
// resumed sweep re-submits and runs it normally.
var ErrInterrupted = errors.New("sweep interrupted before this run started")

// runSim executes one simulation. A package variable so tests can
// substitute a run that panics or fails without needing a real protocol
// bug; production code never reassigns it.
var runSim = ccsim.Run

// Scheduler fans independent simulations out across a bounded pool of
// goroutines and memoizes completed runs by configuration fingerprint, so
// a sweep that names the same configuration many times — the BASIC
// baseline of every figure, the default grid shared by both sensitivity
// studies — simulates it exactly once. Each simulation stays
// single-threaded and deterministic; only the scheduling of whole runs is
// concurrent, so results are bit-identical to a sequential harness at any
// worker count.
//
// The zero value is not usable; call NewScheduler. A Scheduler is safe for
// concurrent use and is normally shared across every experiment of one
// invocation (cmd/experiments builds one for -exp all).
type Scheduler struct {
	jobs       int
	metricsDir string

	// slots bounds the number of simulations running at once.
	slots chan struct{}

	// resStore, when non-nil, is the durable read-through/write-behind
	// result cache (UseStore): completed cacheable runs persist there and
	// later invocations resume by skipping its hits. storeRead gates the
	// read side (`-resume=false` refreshes entries without reading them).
	resStore  *store.Store
	storeRead bool

	// retry bounds re-execution of transiently-faulted runs (SetRetryPolicy).
	retry RetryPolicy

	// stop closes on Interrupt: queued runs abandon instead of starting,
	// and cancel — attached to every executing run — aborts in-flight
	// simulations cleanly at their next event batch.
	stop     chan struct{}
	stopOnce sync.Once
	cancel   *ccsim.Cancel

	mu          sync.Mutex
	runs        map[string]*Pending
	unique      uint64
	failed      []FailedRun
	submitted   uint64
	dedupHits   uint64
	queued      int
	completed   uint64
	retries     uint64
	interrupted uint64
	nextID      uint64
	live        map[uint64]LiveRun

	// droppedSpans accumulates Result.DroppedSpans over completed runs so
	// sweeps can alert on telemetry overflow from /metrics.
	droppedSpans uint64

	// sharing aggregates per-run analyzer totals across the sweep
	// (Options.Sharing runs; see SharingReport).
	sharing ccsim.SharingTotals

	// clock reads wall time for lifecycle histograms; SetClock substitutes
	// a deterministic one in tests. Never nil after NewScheduler.
	clock func() time.Time

	// phases holds the per-run lifecycle duration histograms in
	// microseconds, indexed by phaseQueueWait..phaseMetricsWrite and
	// guarded by mu.
	phases [numPhases]stats.Hist

	// engine aggregates completed runs' Result.Queue snapshots (simulated
	// runs only — store hits carry another sweep's numbers); engineRuns
	// counts contributions. Guarded by mu.
	engine     ccsim.QueueStats
	engineRuns uint64

	// logger, when non-nil, receives retry and store-quarantine records
	// tagged with the run's run_id (SetLogger). Nil stays silent.
	logger *slog.Logger
}

// Lifecycle phase indexes into Scheduler.phases; phaseNames names them in
// Stats() snapshots and Prometheus labels.
const (
	phaseQueueWait    = iota // Submit to worker-slot acquisition
	phaseSimulate            // one simulation attempt (each retry is its own sample)
	phaseRetryWait           // backoff sleeps between retry attempts
	phaseStorePut            // persisting the Result to the durable store
	phaseMetricsWrite        // writing the per-run metrics JSON file
	numPhases
)

var phaseNames = [numPhases]string{
	phaseQueueWait:    "queue_wait",
	phaseSimulate:     "simulate",
	phaseRetryWait:    "retry_wait",
	phaseStorePut:     "store_put",
	phaseMetricsWrite: "metrics_write",
}

// DurationStats is one phase's (or store op's) duration distribution as
// Stats() snapshots it, in seconds — the shape the ops plane exports as
// ccsim_sched_duration_seconds / ccsim_store_duration_seconds.
type DurationStats struct {
	Phase      string  `json:"phase"`
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
}

// SchedStats is one consistent snapshot of the scheduler's counters — the
// gauges the ops plane exports at /metrics.
type SchedStats struct {
	Submitted uint64 // Submit calls, including cache hits
	Unique    uint64 // distinct cacheable configurations started
	DedupHits uint64 // Submit calls served by the run cache
	Queued    int    // runs waiting for a worker slot
	Running   int    // runs executing right now
	Completed uint64 // runs finished without error
	Failed    uint64 // runs finished with an error (see Failed())

	// DroppedSpans sums Result.DroppedSpans over completed runs: nonzero
	// means telemetry span buffers overflowed somewhere in the sweep and
	// exported timelines undercount transactions.
	DroppedSpans uint64

	// Lifecycle decomposes completed runs' wall-clock into the scheduler's
	// five phases (queue_wait, simulate, retry_wait, store_put,
	// metrics_write), one entry per phase in that fixed order. Each
	// simulation attempt is one simulate sample; retry backoff sleeps land
	// in retry_wait, never in simulate.
	Lifecycle []DurationStats

	// Engine aggregates the event engine's queue-internals counters over
	// every run this sweep actually simulated (store hits excluded — their
	// snapshots describe the sweep that produced them). Nil until the first
	// simulated run completes.
	Engine *ccsim.QueueStats

	// Retries counts re-executions of transiently-faulted runs under the
	// retry policy (each retry is one increment; the final outcome lands in
	// Completed or Failed as usual).
	Retries uint64

	// Interrupted counts runs abandoned by graceful shutdown: runs that
	// never started (they sit in the Failed ledger with ErrInterrupted)
	// plus runs cut off mid-retry, which land there with a canceled
	// SimFault instead of their stale transient fault.
	Interrupted uint64

	// Store snapshots the durable result cache's counters, nil when the
	// scheduler runs without one (no -cache-dir).
	Store *StoreStats
}

// StoreStats is the durable result store's state as the ops plane exports
// it (/status, ccsim_store_* on /metrics).
type StoreStats struct {
	Dir         string
	Hits        uint64 // runs served from disk without simulating
	Misses      uint64 // lookups that fell through to a real run
	Writes      uint64 // results persisted
	Quarantined uint64 // corrupt/truncated entries moved aside and re-run

	// Ops holds the store's per-operation latency distributions (read,
	// validate, write), in that fixed order.
	Ops []DurationStats
}

// LiveRun describes one currently-executing simulation. Progress is the
// run's lock-free probe: snapshot it at any time for the run's position
// without disturbing the simulation.
type LiveRun struct {
	ID       uint64 // scheduler-assigned, ascending in start order
	RunID    string // stable cross-cutting identifier (see RunID)
	Workload string
	Protocol string
	Progress *ccsim.Progress
}

// FailedRun records one run that completed with an error — a contained
// panic (a *ccsim.SimFault), a watchdog abort, or a metrics-write failure.
// The sweep continues past it; cmd/experiments dumps the ledger at the end
// and exits non-zero.
type FailedRun struct {
	Cfg ccsim.Config
	Err error
}

// Pending is a handle to a submitted run; Wait blocks until it completes.
// The same Pending is returned to every submitter of one fingerprint.
type Pending struct {
	done chan struct{}
	res  *ccsim.Result
	err  error
}

// NewScheduler returns a scheduler running at most jobs simulations
// concurrently (jobs <= 0 selects GOMAXPROCS). When metricsDir is
// non-empty, every unique run writes its Result there as JSON, exactly
// once, named by writeMetrics' encoding.
func NewScheduler(jobs int, metricsDir string) *Scheduler {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{
		jobs:       jobs,
		metricsDir: metricsDir,
		slots:      make(chan struct{}, jobs),
		runs:       make(map[string]*Pending),
		live:       make(map[uint64]LiveRun),
		stop:       make(chan struct{}),
		cancel:     &ccsim.Cancel{},
		clock:      time.Now,
	}
}

// SetClock substitutes the wall clock the lifecycle histograms read.
// Call before submitting; tests use it for deterministic durations.
func (s *Scheduler) SetClock(now func() time.Time) { s.clock = now }

// SetLogger installs the logger for the scheduler's operational records —
// retries and store quarantines, each tagged with the run's run_id so logs
// and the dashboard cross-reference the same identifier. Call before
// submitting; nil (the default) disables the records.
func (s *Scheduler) SetLogger(l *slog.Logger) { s.logger = l }

// observe records one lifecycle phase duration.
func (s *Scheduler) observe(phase int, d time.Duration) {
	s.mu.Lock()
	s.phases[phase].Add(d.Microseconds())
	s.mu.Unlock()
}

// durationStats renders one histogram of microsecond samples as a
// DurationStats in seconds. Callers hold s.mu (or the store's latMu
// equivalent) as needed.
func durationStats(name string, h *stats.Hist) DurationStats {
	return DurationStats{
		Phase:      name,
		Count:      h.Count(),
		SumSeconds: float64(h.Sum) / 1e6,
		P50Seconds: float64(h.Quantile(50)) / 1e6,
		P95Seconds: float64(h.Quantile(95)) / 1e6,
		P99Seconds: float64(h.Quantile(99)) / 1e6,
		MaxSeconds: float64(h.Max()) / 1e6,
	}
}

// RetryPolicy bounds re-execution of transiently-faulted runs: a run whose
// error is a watchdog SimFault (max-events, deadline, deadlock, livelock —
// the kinds that can be load- or environment-dependent) is retried up to
// MaxAttempts total executions, sleeping Backoff before the first retry
// and doubling it each time. Terminal faults — contained panics, checker
// invariant violations, cancellations — never retry; they land in the
// Failed ledger immediately.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per run; <= 1 disables retry
	Backoff     time.Duration // sleep before the first retry, doubled per attempt
}

// SetRetryPolicy installs the scheduler's retry policy. Call before
// submitting; the zero policy (the default) runs everything exactly once.
func (s *Scheduler) SetRetryPolicy(rp RetryPolicy) { s.retry = rp }

// UseStore attaches a durable result store: every completed cacheable run
// persists its Result there (write-behind), and — when readBack is true —
// submissions whose key already has a valid entry are served from disk
// without simulating (read-through), which is how an interrupted sweep
// resumes. readBack=false refreshes every entry while ignoring existing
// ones. Call before submitting.
func (s *Scheduler) UseStore(st *store.Store, readBack bool) {
	s.resStore = st
	s.storeRead = readBack
}

// Interrupt begins graceful shutdown: runs still waiting for a worker slot
// abandon with ErrInterrupted instead of starting, and every in-flight
// simulation is cancelled cooperatively (it aborts at its next event batch
// with a canceled SimFault). Results completed before the interrupt —
// including their durable-store entries — are untouched, so a re-run
// against the same store resumes where this sweep stopped. Idempotent and
// safe from any goroutine (it is meant for signal handlers).
func (s *Scheduler) Interrupt() {
	s.stopOnce.Do(func() {
		s.cancel.Cancel()
		close(s.stop)
	})
}

// Interrupted reports whether Interrupt has been called.
func (s *Scheduler) Interrupted() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Retryable reports whether err is a transient fault under the retry
// policy: a watchdog SimFault (event ceiling, deadline, deadlock,
// livelock). Panics, invariant violations, cancellations and
// non-simulation errors are terminal.
func Retryable(err error) bool {
	f, ok := ccsim.AsFault(err)
	if !ok {
		return false
	}
	switch f.Kind {
	case ccsim.FaultMaxEvents, ccsim.FaultDeadline, ccsim.FaultDeadlock, ccsim.FaultLivelock:
		return true
	}
	return false
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	st := SchedStats{
		Submitted:    s.submitted,
		Unique:       s.unique,
		DedupHits:    s.dedupHits,
		Queued:       s.queued,
		Running:      len(s.live),
		Completed:    s.completed,
		Failed:       uint64(len(s.failed)),
		DroppedSpans: s.droppedSpans,
		Retries:      s.retries,
		Interrupted:  s.interrupted,
	}
	st.Lifecycle = make([]DurationStats, numPhases)
	for i := range s.phases {
		st.Lifecycle[i] = durationStats(phaseNames[i], &s.phases[i])
	}
	if s.engineRuns > 0 {
		eng := s.engine
		st.Engine = &eng
	}
	s.mu.Unlock()
	if s.resStore != nil {
		ss := s.resStore.Stats()
		st.Store = &StoreStats{
			Dir:         s.resStore.Root(),
			Hits:        ss.Hits,
			Misses:      ss.Misses,
			Writes:      ss.Writes,
			Quarantined: ss.Quarantined,
		}
		for _, l := range s.resStore.Latencies() {
			st.Store.Ops = append(st.Store.Ops, DurationStats{
				Phase: l.Op, Count: l.Count, SumSeconds: l.SumSeconds,
				P50Seconds: l.P50Seconds, P95Seconds: l.P95Seconds,
				P99Seconds: l.P99Seconds, MaxSeconds: l.MaxSeconds,
			})
		}
	}
	return st
}

// LiveRuns snapshots the registry of currently-executing runs, oldest
// first. Each entry's Progress probe stays valid after the run completes;
// its Done flag flips when the run leaves the registry.
func (s *Scheduler) LiveRuns() []LiveRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LiveRun, 0, len(s.live))
	for _, lr := range s.live {
		out = append(out, lr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SharingReport renders the sweep-wide sharing-pattern aggregate: every
// completed analyzed run's (Options.Sharing) per-class totals merged. Nil
// until at least one analyzed run completes.
func (s *Scheduler) SharingReport() *ccsim.SharingReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharing.Report()
}

// Jobs returns the worker-pool size.
func (s *Scheduler) Jobs() int { return s.jobs }

// Unique returns how many distinct simulations have been submitted so far;
// the difference against the number of Submit calls is the work the run
// cache saved.
func (s *Scheduler) Unique() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unique
}

// Submit queues cfg for simulation and returns its handle immediately. A
// configuration already submitted — by this experiment or any other
// sharing the scheduler — returns the existing handle without a new run.
// Configurations carrying side channels (TraceWriter, Telemetry) bypass
// the cache: their runs are observable and must execute per submission.
func (s *Scheduler) Submit(cfg ccsim.Config) *Pending {
	key, cacheable := Fingerprint(cfg)
	p := &Pending{done: make(chan struct{})}
	submittedAt := s.clock()
	if !cacheable {
		s.mu.Lock()
		s.submitted++
		s.queued++
		s.mu.Unlock()
		go s.exec(p, cfg, key, false, submittedAt)
		return p
	}
	s.mu.Lock()
	s.submitted++
	if prev, ok := s.runs[key]; ok {
		s.dedupHits++
		s.mu.Unlock()
		return prev
	}
	s.runs[key] = p
	s.unique++
	s.queued++
	s.mu.Unlock()
	go s.exec(p, cfg, key, true, submittedAt)
	return p
}

// Failed returns every run that completed with an error, in completion
// order. The order depends on worker scheduling; callers wanting
// deterministic output sort by configuration.
func (s *Scheduler) Failed() []FailedRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FailedRun(nil), s.failed...)
}

func (s *Scheduler) exec(p *Pending, cfg ccsim.Config, key string, cacheable bool, submittedAt time.Time) {
	select {
	case s.slots <- struct{}{}:
	case <-s.stop:
		// Interrupted while queued: never ran, and under graceful shutdown
		// never will. The error routes through the Failed ledger so
		// cmd/experiments can count abandoned runs and print the resume
		// hint; a resumed sweep re-runs them from scratch (or from the
		// store, for the ones that did complete).
		p.err = ErrInterrupted
		s.mu.Lock()
		s.queued--
		s.interrupted++
		s.failed = append(s.failed, FailedRun{Cfg: cfg, Err: p.err})
		s.mu.Unlock()
		close(p.done)
		return
	}
	defer func() { <-s.slots }()
	s.observe(phaseQueueWait, s.clock().Sub(submittedAt))
	// Read-through: a valid store entry for this exact key — same schema,
	// same canonical configuration — serves the run without simulating.
	// That is the whole resume path: an interrupted sweep's completed runs
	// hit here, only the missing ones execute. Metrics files are still
	// written so a resumed `-metrics` sweep produces the full directory.
	if s.resStore != nil && s.storeRead && cacheable {
		if res, ok := s.storeGet(key, cfg); ok {
			p.res = res
			if s.metricsDir != "" {
				t0 := s.clock()
				werr := writeMetrics(s.metricsDir, cfg, res)
				s.observe(phaseMetricsWrite, s.clock().Sub(t0))
				if werr != nil {
					p.err = fmt.Errorf("metrics: %w", werr)
				}
			}
			s.mu.Lock()
			s.queued--
			if p.err != nil {
				s.failed = append(s.failed, FailedRun{Cfg: cfg, Err: p.err})
			} else {
				s.completed++
			}
			s.mu.Unlock()
			close(p.done)
			return
		}
	}
	// Register in the live table once a worker slot is held: the run is
	// about to execute, so its probe starts advancing. A caller-supplied
	// probe is reused (the submitter is watching); otherwise the scheduler
	// attaches its own so the ops plane sees every run.
	prog := cfg.Progress
	if prog == nil {
		prog = &ccsim.Progress{Label: cfg.Workload + "/" + cfg.ProtocolName()}
		cfg.Progress = prog
	}
	if cfg.Cancel == nil {
		// The scheduler's shared flag: Interrupt stops this run at its next
		// event batch. Attached after fingerprinting, like the probe, so it
		// never affects cacheability.
		cfg.Cancel = s.cancel
	}
	if cfg.Check != nil {
		// A checker holds per-run shadow state; sweeps copy one base config
		// across many concurrent cells, so each run gets its own oracle.
		cfg.Check = ccsim.NewChecker()
	}
	if cfg.Sharing != nil {
		// Same per-run-state rule as the checker; totals merge into the
		// sweep aggregate on completion.
		cfg.Sharing = ccsim.NewSharingAnalytics()
	}
	s.mu.Lock()
	s.queued--
	s.nextID++
	id := s.nextID
	s.live[id] = LiveRun{ID: id, RunID: RunID(cfg), Workload: cfg.Workload,
		Protocol: cfg.ProtocolName(), Progress: prog}
	s.mu.Unlock()
	// done closes on every path — a panicking run must never leave Wait()
	// callers hanging. Deferred before the recover handler so the handler
	// has set p.err by the time done closes (LIFO order).
	defer close(p.done)
	defer func() {
		if v := recover(); v != nil {
			p.res = nil
			p.err = fmt.Errorf("run panicked outside the simulation: %v\n%s", v, debug.Stack())
		}
		s.mu.Lock()
		delete(s.live, id)
		if p.err != nil {
			s.failed = append(s.failed, FailedRun{Cfg: cfg, Err: p.err})
		} else {
			s.completed++
			if p.res != nil {
				s.droppedSpans += p.res.DroppedSpans
				s.engine.Merge(p.res.Queue)
				s.engineRuns++
			}
			if cfg.Sharing != nil {
				s.sharing.Merge(cfg.Sharing.Totals())
			}
		}
		s.mu.Unlock()
	}()
	p.res, p.err = s.runWithRetry(cfg)
	if p.err == nil && s.resStore != nil && cacheable {
		// Write-behind: persist before the metrics write so a crash between
		// the two still resumes (the store is the source of truth; metrics
		// files regenerate from it on the resumed run).
		t1 := s.clock()
		serr := s.storePut(key, p.res)
		s.observe(phaseStorePut, s.clock().Sub(t1))
		if serr != nil {
			// The simulation itself succeeded: keep the Result for
			// in-process waiters and surface the persistence failure as this
			// run's error, same contract as a metrics-write failure.
			p.err = fmt.Errorf("store: %w", serr)
		}
	}
	if p.err == nil && s.metricsDir != "" {
		t2 := s.clock()
		werr := writeMetrics(s.metricsDir, cfg, p.res)
		s.observe(phaseMetricsWrite, s.clock().Sub(t2))
		if werr != nil {
			// The simulation itself succeeded: keep the Result for
			// in-process waiters and report the metrics failure as this
			// run's error.
			p.err = fmt.Errorf("metrics: %w", werr)
		}
	}
}

// runWithRetry executes one simulation under the retry policy: transient
// watchdog faults re-run with doubling backoff up to the attempt cap;
// terminal faults, success, or an interrupted sweep return immediately.
// Each attempt contributes its own simulate lifecycle sample and backoff
// sleeps land in retry_wait, so the simulate histogram never inflates with
// time spent deliberately asleep.
func (s *Scheduler) runWithRetry(cfg ccsim.Config) (*ccsim.Result, error) {
	attempts := s.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := s.retry.Backoff
	for attempt := 1; ; attempt++ {
		t0 := s.clock()
		res, err := runSim(cfg)
		s.observe(phaseSimulate, s.clock().Sub(t0))
		if err == nil || attempt >= attempts || !Retryable(err) {
			return res, err
		}
		if s.Interrupted() {
			// The run would retry, but the sweep is shutting down: its last
			// transient fault is stale state of an abandoned retry loop, not
			// this run's outcome. Classify it as canceled so the ledger, the
			// shutdown condensation and the interrupted counter all agree.
			return nil, s.retryInterrupted(err)
		}
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
		if s.logger != nil {
			kind := ""
			if f, ok := ccsim.AsFault(err); ok {
				kind = f.Kind
			}
			s.logger.Warn("transient fault; retrying run",
				"run_id", RunID(cfg), "attempt", attempt, "max_attempts", attempts,
				"kind", kind, "backoff", backoff.String())
		}
		if backoff > 0 {
			t1 := s.clock()
			interrupted := false
			select {
			case <-time.After(backoff):
			case <-s.stop:
				interrupted = true
			}
			s.observe(phaseRetryWait, s.clock().Sub(t1))
			if interrupted {
				return nil, s.retryInterrupted(err)
			}
			backoff *= 2
		}
	}
}

// retryInterrupted classifies a retry loop cut off by graceful shutdown:
// the stale transient fault of the last attempt is replaced by a canceled
// SimFault naming it, and the run counts as interrupted.
func (s *Scheduler) retryInterrupted(last error) error {
	kind := "unknown"
	if f, ok := ccsim.AsFault(last); ok {
		kind = f.Kind
	}
	s.mu.Lock()
	s.interrupted++
	s.mu.Unlock()
	return &ccsim.SimFault{
		Kind: ccsim.FaultCanceled,
		Message: fmt.Sprintf(
			"sweep interrupted during retry backoff (last transient fault: %s)", kind),
	}
}

// storeGet resolves key through the durable store: a valid entry decodes
// into the Result a fresh run would have produced. An entry whose bytes
// verify but whose payload no longer deserializes is dropped (quarantined)
// and treated as a miss — belt and braces under the schema tag.
func (s *Scheduler) storeGet(key string, cfg ccsim.Config) (*ccsim.Result, bool) {
	b, ok, quarantined := s.resStore.GetEntry(key)
	if quarantined && s.logger != nil {
		s.logger.Warn("corrupt store entry quarantined; re-running",
			"run_id", RunID(cfg), "store", s.resStore.Root())
	}
	if !ok {
		return nil, false
	}
	var r ccsim.Result
	if err := json.Unmarshal(b, &r); err != nil {
		s.resStore.Drop(key)
		if s.logger != nil {
			s.logger.Warn("undecodable store entry dropped; re-running",
				"run_id", RunID(cfg), "err", err.Error())
		}
		return nil, false
	}
	return &r, true
}

// storePut persists one completed run's Result under its cache key.
func (s *Scheduler) storePut(key string, r *ccsim.Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return s.resStore.Put(key, b)
}

// Wait blocks until the run completes and returns its result. The Result
// is shared between all submitters of one configuration and must be
// treated as read-only.
func (p *Pending) Wait() (*ccsim.Result, error) {
	<-p.done
	return p.res, p.err
}

// Cell resolves the run for one table cell of a fault-tolerant sweep: the
// Result, or nil when the run faulted. The error itself is not lost — it
// sits in the scheduler's Failed ledger. A run whose simulation succeeded
// but whose metrics write failed still yields its Result here.
func (p *Pending) Cell() *ccsim.Result {
	r, _ := p.Wait()
	return r
}

// detachSideChannels clears every side channel from cfg and reports whether
// it carried any. A side channel is an attachment whose effects reach
// beyond the Result: Fingerprint refuses to cache a run that carries one,
// and RunID leaves them out of a run's identity. This is the one list of
// them, so the two can never disagree. It does not allocate: every Submit
// goes through it.
func detachSideChannels(cfg *ccsim.Config) bool {
	var had bool
	detach(&had, &cfg.TraceWriter)
	detach(&had, &cfg.Telemetry)
	detach(&had, &cfg.Progress)
	detach(&had, &cfg.Check)
	detach(&had, &cfg.Sharing)
	detach(&had, &cfg.Cancel)
	return had
}

// detach zeroes *field, recording in *had whether it was set.
func detach[T comparable](had *bool, field *T) {
	var zero T
	if *field != zero {
		*had = true
		*field = zero
	}
}

// Fingerprint canonicalizes cfg into the scheduler's cache key. The second
// return is false when the configuration cannot be cached because it
// carries a side channel (see detachSideChannels).
//
// The key is prefixed with ResultSchemaVersion(), so durable-store entries
// written by a build with a different Result JSON shape land in different
// slots and read as misses — stale on-disk results from older builds can
// never deserialize into the wrong struct.
func Fingerprint(cfg ccsim.Config) (string, bool) {
	if detachSideChannels(&cfg) {
		return "", false
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1.0 // Run applies the same default
	}
	e := cfg.Extensions
	return fmt.Sprintf("v%s|%s|x%g|p%d|P%t|M%t|CW%t|SC%t|net%d|link%d|slc%d|ways%d|flwb%d|slwb%d|pfk%d|cwt%d|wcb%d|nack%t|dir%d|vd%t|me%d|dl%d|np%d|inj%s",
		ResultSchemaVersion(),
		cfg.Workload, scale, cfg.Procs, e.P, e.M, e.CW, cfg.SC,
		cfg.Net, cfg.LinkBits, cfg.SLCBlocks, cfg.SLCWays,
		cfg.FLWBEntries, cfg.SLWBEntries,
		cfg.PrefetchMaxK, cfg.CWThreshold, cfg.WriteCacheBlocks,
		cfg.PrefetchNackDirty, cfg.DirPointers, cfg.VerifyData,
		cfg.MaxEvents, cfg.Deadline, cfg.NoProgressEvents, cfg.FaultInject), true
}
