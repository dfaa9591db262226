package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ccsim"
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
	running     int
	completed   uint64
	interrupted uint64

	// sharing aggregates per-run analyzer totals across the sweep
	// (Options.Sharing runs; see SharingReport).
	sharing ccsim.SharingTotals

	// clock reads wall time for the lifecycle totals; SetClock substitutes
	// a deterministic one in tests. Never nil after NewScheduler.
	clock func() time.Time

	// phaseN and phaseSum count each lifecycle phase's samples and total
	// their wall time, indexed by phaseQueueWait and phaseSimulate and
	// guarded by mu.
	phaseN   [numPhases]uint64
	phaseSum [numPhases]time.Duration

	// engine aggregates completed runs' Result.Queue snapshots (simulated
	// runs only — store hits carry another sweep's numbers); engineRuns
	// counts contributions. Guarded by mu.
	engine     ccsim.QueueStats
	engineRuns uint64

	// logger, when non-nil, receives store-quarantine records tagged with
	// the run's run_id (SetLogger). Nil stays silent.
	logger *slog.Logger
}

// Lifecycle phase indexes into Scheduler.phaseN and phaseSum; phaseNames
// names them in Stats() snapshots.
const (
	phaseQueueWait = iota // Submit to worker-slot acquisition
	phaseSimulate         // the simulation itself (store hits have none)
	numPhases
)

var phaseNames = [numPhases]string{
	phaseQueueWait: "queue_wait",
	phaseSimulate:  "simulate",
}

// DurationStats is one lifecycle phase's sample count and total wall time
// as Stats() snapshots it.
type DurationStats struct {
	Phase      string
	Count      uint64
	SumSeconds float64
}

// SchedStats is one consistent snapshot of the scheduler's counters. The
// end-of-sweep log record and the interruption summary read the counts;
// the benchmark in bench/ reads Lifecycle and Engine.
type SchedStats struct {
	Submitted uint64 // Submit calls, including cache hits
	Unique    uint64 // distinct cacheable configurations started
	DedupHits uint64 // Submit calls served by the run cache
	Queued    int    // runs waiting for a worker slot
	Running   int    // runs executing right now
	Completed uint64 // runs finished without error
	Failed    uint64 // runs finished with an error (see Failed())

	// Lifecycle totals the wall time runs spent in the scheduler's two
	// phases, queue_wait and simulate, one entry per phase in that fixed
	// order. Each simulated run is one simulate sample; a store hit
	// contributes none.
	Lifecycle []DurationStats

	// Engine aggregates the event engine's queue-internals counters over
	// every run this sweep actually simulated (store hits excluded — their
	// snapshots describe the sweep that produced them). Nil until the first
	// simulated run completes.
	Engine *ccsim.QueueStats

	// Interrupted counts runs abandoned by graceful shutdown before they
	// started; they sit in the Failed ledger with ErrInterrupted. A run
	// already executing aborts with a canceled SimFault and counts as
	// Failed only.
	Interrupted uint64
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
		stop:       make(chan struct{}),
		cancel:     &ccsim.Cancel{},
		clock:      time.Now,
	}
}

// SetClock substitutes the wall clock the lifecycle totals read.
// Call before submitting; tests use it for deterministic durations.
func (s *Scheduler) SetClock(now func() time.Time) { s.clock = now }

// SetLogger installs the logger for the scheduler's operational records —
// store quarantines, each tagged with the run's run_id, the identifier the
// fault report also uses. Call before submitting; nil (the default)
// disables the records.
func (s *Scheduler) SetLogger(l *slog.Logger) { s.logger = l }

// observe records one lifecycle phase duration.
func (s *Scheduler) observe(phase int, d time.Duration) {
	s.mu.Lock()
	s.phaseN[phase]++
	s.phaseSum[phase] += d
	s.mu.Unlock()
}

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

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedStats{
		Submitted:   s.submitted,
		Unique:      s.unique,
		DedupHits:   s.dedupHits,
		Queued:      s.queued,
		Running:     s.running,
		Completed:   s.completed,
		Failed:      uint64(len(s.failed)),
		Interrupted: s.interrupted,
	}
	st.Lifecycle = make([]DurationStats, numPhases)
	for i := range st.Lifecycle {
		st.Lifecycle[i] = DurationStats{
			Phase: phaseNames[i], Count: s.phaseN[i], SumSeconds: s.phaseSum[i].Seconds(),
		}
	}
	if s.engineRuns > 0 {
		eng := s.engine
		st.Engine = &eng
	}
	return st
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

// exec runs one submitted configuration once it holds a worker slot: from
// the durable store when that holds the run, by simulating it otherwise.
// Both ways end in the same metrics write and the same ledger bookkeeping.
func (s *Scheduler) exec(p *Pending, cfg ccsim.Config, key string, cacheable bool, submittedAt time.Time) {
	if !s.acquire() {
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
	// simulated turns true when the run moves from queued to running; a
	// store hit never does.
	var simulated bool
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
		if simulated {
			s.running--
		} else {
			s.queued-- // never simulated: leaves the queue here
		}
		if p.err != nil {
			s.failed = append(s.failed, FailedRun{Cfg: cfg, Err: p.err})
		} else {
			s.completed++
			// Only simulated runs feed the engine aggregate: a store hit
			// carries the numbers of the sweep that produced it.
			if simulated && p.res != nil {
				s.engine.Merge(p.res.Queue)
				s.engineRuns++
			}
			if cfg.Sharing != nil {
				s.sharing.Merge(cfg.Sharing.Totals())
			}
		}
		s.mu.Unlock()
	}()
	s.observe(phaseQueueWait, s.clock().Sub(submittedAt))
	// Read-through: a valid store entry for this exact key — same schema,
	// same canonical configuration — serves the run without simulating.
	// That is the whole resume path: an interrupted sweep's completed runs
	// hit here, only the missing ones execute. Metrics files are still
	// written so a resumed `-metrics` sweep produces the full directory.
	hit := false
	if s.resStore != nil && s.storeRead && cacheable {
		p.res, hit = s.storeGet(key, cfg)
	}
	if !hit {
		if cfg.Cancel == nil {
			// The scheduler's shared flag: Interrupt stops this run at its
			// next event batch. Attached after fingerprinting, so it never
			// affects cacheability.
			cfg.Cancel = s.cancel
		}
		if cfg.Check != nil {
			// A checker holds per-run shadow state; sweeps copy one base
			// config across many concurrent cells, so each run gets its own
			// oracle.
			cfg.Check = ccsim.NewChecker()
		}
		if cfg.Sharing != nil {
			// Same per-run-state rule as the checker; totals merge into the
			// sweep aggregate on completion.
			cfg.Sharing = ccsim.NewSharingAnalytics()
		}
		s.mu.Lock()
		s.queued--
		s.running++
		simulated = true
		s.mu.Unlock()
		t0 := s.clock()
		p.res, p.err = runSim(cfg)
		s.observe(phaseSimulate, s.clock().Sub(t0))
		if p.err == nil && s.resStore != nil && cacheable {
			// Write-behind: persist before the metrics write so a crash
			// between the two still resumes (the store is the source of
			// truth; metrics files regenerate from it on the resumed run).
			if err := s.storePut(key, p.res); err != nil {
				// The simulation itself succeeded: keep the Result for
				// in-process waiters and surface the persistence failure as
				// this run's error, same contract as a metrics-write failure.
				p.err = fmt.Errorf("store: %w", err)
			}
		}
	}
	if p.err == nil && s.metricsDir != "" {
		if err := writeMetrics(s.metricsDir, cfg, p.res); err != nil {
			// The run itself succeeded: keep the Result for in-process
			// waiters and report the metrics failure as this run's error.
			p.err = fmt.Errorf("metrics: %w", err)
		}
	}
}

// acquire waits for a worker slot and reports whether the run may start.
// It returns false, holding no slot, once Interrupt has been called. A
// select chooses at random among ready cases, so a slot that is free after
// Interrupt can win over the closed stop channel; such a slot is handed
// back unused.
func (s *Scheduler) acquire() bool {
	select {
	case s.slots <- struct{}{}:
	case <-s.stop:
		return false
	}
	if s.Interrupted() {
		<-s.slots
		return false
	}
	return true
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
