package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ccsim"
	"ccsim/exp"
	"ccsim/internal/proc"
	"ccsim/internal/store"
	"ccsim/internal/workload"
)

// benchWorkload is one workload of the benchmark.
type benchWorkload struct {
	name string
	// perRound is how many passes one interleaved round runs, and passSecs
	// the nominal host seconds of one pass; together they turn -seconds
	// into a fixed pass count that is the same on every commit.
	perRound int
	passSecs float64
	pass     func(e *env, n int, traced bool) (passResult, error)
}

// passResult is what one pass measured: vals holds every per-pass metric
// value by catalogue name.
type passResult struct {
	attempted, failed int
	vals              map[string]float64
}

// env is the state a run shares across passes.
type env struct {
	seed  int64
	quick bool
	jobs  int // sweep worker slots: one per CPU
	ref   *reference
	probe *hostProbe
}

// scale shrinks a nominal problem size for -quick.
func (e *env) scale(s float64) float64 {
	if e.quick {
		return s / 8
	}
	return s
}

// key names a reference entry; -quick entries are pinned separately.
func (e *env) key(parts ...string) string {
	k := strings.Join(parts, "/")
	if e.quick {
		k = "quick/" + k
	}
	return k
}

// order is the sequence in which pass n of the named schedule visits its
// items. Seed 0 keeps the nominal order; any other seed shuffles every pass
// differently, deterministically in (seed, name, n).
func (e *env) order(name string, n, items int) []int {
	if e.seed == 0 {
		out := make([]int, items)
		for i := range out {
			out[i] = i
		}
		return out
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", e.seed, name, n)
	return rand.New(rand.NewSource(int64(h.Sum64()))).Perm(items)
}

// timedSection is one measured stretch of a pass.
type timedSection struct {
	wall    float64
	mallocs uint64
	bytes   uint64
	cpu     layerTimes // traced passes only
}

// measure runs fn after a forced GC, timing it and counting its heap
// allocations; traced sections also record a CPU profile and charge it to
// layers.
func measure(traced bool, fn func()) (timedSection, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return timedSection{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	ts := timedSection{wall: wall, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
	if traced {
		pprof.StopCPUProfile()
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return timedSection{}, err
		}
		ts.cpu = layerTimes{}
		ts.cpu.add(p)
	}
	return ts, nil
}

// setTimed records the end-to-end values of a pass's timed section, and for
// a traced pass every layer's CPU share and self nanoseconds per event.
func (r *passResult) setTimed(ts timedSection, runs int, events uint64) {
	r.vals["wall_s"] = ts.wall
	if runs > 0 {
		r.vals["allocs_per_run"] = float64(ts.mallocs) / float64(runs)
		r.vals["alloc_mb_per_run"] = float64(ts.bytes) / float64(runs) / 1e6
	}
	if ts.cpu == nil {
		return
	}
	total := float64(ts.cpu.total())
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.Name, ".cpu_share"); ok {
			r.vals[d.Name] = ratio(float64(ts.cpu[layer]), total)
		} else if layer, ok := strings.CutSuffix(d.Name, ".ns_per_event"); ok {
			r.vals[d.Name] = ratio(float64(ts.cpu[layer]), float64(events))
		}
	}
}

func newPass() passResult { return passResult{vals: map[string]float64{}} }

// runSpec is one simulation of a run-set workload.
type runSpec struct {
	label   string
	cfg     ccsim.Config
	observe bool // attach every side channel, fresh per run
}

func (s runSpec) config() ccsim.Config {
	cfg := s.cfg
	if s.observe {
		cfg.Check = ccsim.NewChecker()
		cfg.Sharing = ccsim.NewSharingAnalytics()
		cfg.Telemetry = ccsim.NewTelemetry()
		cfg.TraceWriter = io.Discard
	}
	return cfg
}

// kernelRuns builds one spec per kernel and protocol variant. The machine
// starts from the paper's baseline (16 processors, uniform network, infinite
// SLC) and machine adjusts it.
func kernelRuns(e *env, scale float64, observe bool, machine func(*ccsim.Config), protos ...string) []runSpec {
	var out []runSpec
	for _, wl := range ccsim.Workloads() {
		for _, p := range protos {
			cfg := ccsim.DefaultConfig()
			cfg.Workload = wl
			cfg.Scale = e.scale(scale)
			switch p {
			case "P+CW":
				cfg.Extensions = ccsim.Ext{P: true, CW: true}
			case "P+M-SC":
				cfg.Extensions = ccsim.Ext{P: true, M: true}
				cfg.SC = true
			}
			if machine != nil {
				machine(&cfg)
			}
			out = append(out, runSpec{label: wl + "/" + p, cfg: cfg, observe: observe})
		}
	}
	return out
}

// runSetPass runs every spec once, in the seed's order for pass n. Set-up
// generates each run's operation streams with workload.Streams, the call
// ccsim.Run makes first; the timed section then runs the simulations.
func runSetPass(e *env, name string, specs []runSpec, n int, traced bool) (passResult, error) {
	r := newPass()
	order := e.order(name, n, len(specs))

	runtime.GC()
	var gen time.Duration
	ops := 0
	for _, i := range order {
		c := specs[i].cfg
		t := time.Now()
		streams, err := workload.Streams(c.Workload, c.Procs, c.Scale)
		gen += time.Since(t)
		if err != nil {
			return r, fmt.Errorf("%s: %w", specs[i].label, err)
		}
		ops += drain(streams)
	}
	r.vals["setup_s"] = gen.Seconds()
	r.vals["workload.gen_s"] = gen.Seconds()
	if ops > 0 {
		r.vals["workload.gen_ns_per_op"] = float64(gen.Nanoseconds()) / float64(ops)
	}

	var c counts
	ts, err := measure(traced, func() {
		for _, i := range order {
			s := specs[i]
			t := time.Now()
			res, err := ccsim.Run(s.config())
			c.runSeconds += time.Since(t).Seconds()
			r.attempted++
			if !e.ref.checkRun(e.key(name, s.label), res, err) {
				r.failed++
				continue
			}
			c.add(res)
		}
	})
	if err != nil {
		return r, err
	}
	r.setTimed(ts, len(specs), c.events)
	c.store(r.vals)
	return r, nil
}

// drain consumes the streams and counts their operations.
func drain(streams []proc.Stream) int {
	n := 0
	for _, s := range streams {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			n++
		}
	}
	return n
}

// counts sums the simulated statistics of a pass's runs.
type counts struct {
	runSeconds                       float64
	events, cohorts, wheel, overflow uint64
	waitPclk, pclocks                int64
	msgs, misses, ownReqs, updReqs   uint64
	missLatSum                       float64
	missLatRuns                      int
	pfIssued, pfUseful, repl, wcHits uint64
	trafficBytes, updateBytes, refs  uint64
	stall, busy                      int64
	droppedSpans                     uint64
}

func (c *counts) add(r *ccsim.Result) {
	c.events += r.Queue.Dispatched
	c.cohorts += r.Queue.Cohorts
	c.wheel += r.Queue.WheelScheduled
	c.overflow += r.Queue.OverflowScheduled
	for _, u := range r.Resources {
		c.waitPclk += u.WaitPclocks
	}
	c.pclocks += r.TotalPclocks
	c.msgs += r.TrafficMsgs
	c.misses += r.ColdMisses + r.CoherenceMisses + r.ReplacementMisses
	c.ownReqs += r.OwnershipRequests
	c.updReqs += r.UpdateRequests
	c.missLatSum += r.AvgReadMissLatency
	c.missLatRuns++
	c.pfIssued += r.PrefetchesIssued
	c.pfUseful += r.PrefetchesUseful
	c.repl += r.ReplacementMisses
	c.wcHits += r.WriteCacheHits
	c.trafficBytes += r.TrafficBytes
	c.updateBytes += r.UpdateBytes
	c.refs += r.Reads + r.Writes
	c.stall += r.ReadStall + r.WriteStall + r.AcquireStall + r.ReleaseStall
	c.busy += r.Busy
	c.droppedSpans += r.DroppedSpans
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c *counts) store(v map[string]float64) {
	v["sim.events"] = float64(c.events)
	v["sim.cohort_mean"] = ratio(float64(c.events), float64(c.cohorts))
	v["sim.overflow_frac"] = ratio(float64(c.overflow), float64(c.wheel+c.overflow))
	v["sim.wait_pclk"] = float64(c.waitPclk)
	v["sim.mpclk_per_s"] = ratio(float64(c.pclocks)/1e6, c.runSeconds)
	v["core.msgs"] = float64(c.msgs)
	v["core.misses"] = float64(c.misses)
	v["core.miss_lat_pclk"] = ratio(c.missLatSum, float64(c.missLatRuns))
	v["core.own_reqs"] = float64(c.ownReqs)
	v["core.update_reqs"] = float64(c.updReqs)
	v["core.prefetch_useful_frac"] = ratio(float64(c.pfUseful), float64(c.pfIssued))
	v["cache.repl_misses"] = float64(c.repl)
	v["cache.wc_hits"] = float64(c.wcHits)
	v["network.mb"] = float64(c.trafficBytes) / 1e6
	v["network.update_mb"] = float64(c.updateBytes) / 1e6
	v["proc.ops"] = float64(c.refs)
	v["proc.stall_frac"] = ratio(float64(c.stall), float64(c.stall+c.busy))
	v["telemetry.dropped_spans"] = float64(c.droppedSpans)
}

// experiment is one step of `experiments -exp all`: it runs its simulations
// through o.Sched and renders its table.
type experiment struct {
	name string
	run  func(o exp.Options, w io.Writer) error
}

func table[R any](f func(exp.Options) ([]R, error), print func(io.Writer, []R)) func(exp.Options, io.Writer) error {
	return func(o exp.Options, w io.Writer) error {
		rows, err := f(o)
		if err != nil {
			return err
		}
		print(w, rows)
		return nil
	}
}

// experiments is the -exp all sequence in its canonical order.
var experiments = []experiment{
	{"table1", func(o exp.Options, w io.Writer) error { exp.FprintTable1(w, o.Procs); return nil }},
	{"fig2", table(exp.Figure2, exp.FprintFigure2)},
	{"table2", table(exp.Table2, exp.FprintTable2)},
	{"fig3", table(exp.Figure3, exp.FprintFigure3)},
	{"table3", table(exp.Table3, exp.FprintTable3)},
	{"fig4", table(exp.Figure4, exp.FprintFigure4)},
	{"sens_buffers", table(exp.SensBuffers, func(w io.Writer, r []exp.SensRow) { exp.FprintSens(w, r, "4-entry buffers") })},
	{"sens_cache", table(exp.SensCache, func(w io.Writer, r []exp.SensRow) { exp.FprintSens(w, r, "16-KB SLC") })},
	{"dir", table(exp.DirectoryStudy, exp.FprintDirectory)},
	{"assoc", table(exp.AssociativityStudy, exp.FprintAssoc)},
	{"scaling", table(exp.ScalingStudy, exp.FprintScaling)},
	{"cost", table(func(o exp.Options) ([]exp.CostRow, error) { return exp.CostPerformance(o, "mp3d") },
		func(w io.Writer, r []exp.CostRow) { exp.FprintCost(w, "mp3d", r) })},
}

// sweepRun is one run of the experiment sequence.
type sweepRun struct {
	sched  *exp.Scheduler
	st     *store.Store
	sum    string // sha256 of the rendered tables in canonical order
	failed int    // experiments that returned an error
}

// sweepTables runs the experiments in order through a fresh scheduler backed
// by the store in dir, recording each one's host seconds in spans when
// spans is non-nil.
func sweepTables(e *env, dir string, order []int, spans map[string]float64) (sweepRun, error) {
	st, err := store.Open(dir)
	if err != nil {
		return sweepRun{}, err
	}
	sr := sweepRun{sched: exp.NewScheduler(e.jobs, ""), st: st}
	sr.sched.UseStore(st, true)
	// At scale 0.125 a cold pass takes about 1.6 s, so a 20-second run
	// holds a dozen passes for its first quartile.
	o := exp.Options{Scale: e.scale(0.125), Procs: 16, Sched: sr.sched}
	tables := make([][]byte, len(experiments))
	for _, i := range order {
		var b bytes.Buffer
		t := time.Now()
		if err := experiments[i].run(o, &b); err != nil {
			sr.failed++
		}
		if spans != nil {
			spans["exp."+experiments[i].name+"_s"] = time.Since(t).Seconds()
		}
		tables[i] = b.Bytes()
	}
	h := sha256.New()
	for _, t := range tables {
		h.Write(t)
	}
	sr.sum = hex.EncodeToString(h.Sum(nil))
	return sr, nil
}

// sweepPass runs the whole-evaluation sweep cold into a fresh store, then
// warm: reopening the store and rebuilding every table from it is the
// set-up a resumed sweep pays, and must simulate nothing.
func sweepPass(e *env, n int, traced bool) (passResult, error) {
	r := newPass()
	dir, err := os.MkdirTemp("", "ccsim-bench-store-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	order := e.order("sweep", n, len(experiments))

	var cold sweepRun
	var coldErr error
	ts, err := measure(traced, func() {
		cold, coldErr = sweepTables(e, dir, order, r.vals)
	})
	if err != nil {
		return r, err
	}
	if coldErr != nil {
		return r, coldErr
	}
	cs := cold.sched.Stats()
	r.attempted += int(cs.Submitted) + 1
	r.failed += cold.failed + len(cold.sched.Failed())
	if !e.ref.checkTables(e.key("sweep"), cold.sum) {
		r.failed++
	}

	runtime.GC()
	t := time.Now()
	warm, err := sweepTables(e, dir, order, nil)
	r.vals["setup_s"] = time.Since(t).Seconds()
	if err != nil {
		return r, err
	}
	ws := warm.sched.Stats()
	r.attempted += int(ws.Submitted) + 1
	r.failed += warm.failed + len(warm.sched.Failed()) + int(warm.st.Stats().Misses)
	if ws.Engine != nil || warm.sum != cold.sum {
		r.failed++
	}

	var events uint64
	if q := cs.Engine; q != nil {
		events = q.Dispatched
		r.vals["sim.events"] = float64(q.Dispatched)
		r.vals["sim.cohort_mean"] = ratio(float64(q.Dispatched), float64(q.Cohorts))
		r.vals["sim.overflow_frac"] = ratio(float64(q.OverflowScheduled), float64(q.WheelScheduled+q.OverflowScheduled))
	}
	r.setTimed(ts, int(cs.Unique), events)
	r.vals["exp.unique_runs"] = float64(cs.Unique)
	r.vals["exp.dedup_hits"] = float64(cs.DedupHits)
	for _, ph := range cs.Lifecycle {
		switch ph.Phase {
		case "queue_wait":
			r.vals["exp.queue_wait_s"] = ph.SumSeconds
		case "simulate":
			r.vals["exp.simulate_s"] = ph.SumSeconds
			r.vals["exp.busy_frac"] = ratio(ph.SumSeconds, ts.wall*float64(e.jobs))
		}
	}
	meanMs := func(s *store.Store, op string) float64 {
		for _, l := range s.Latencies() {
			if l.Op == op {
				return ratio(l.SumSeconds*1000, float64(l.Count))
			}
		}
		return 0
	}
	r.vals["store.write_ms_mean"] = meanMs(cold.st, "write")
	r.vals["store.read_ms_mean"] = meanMs(warm.st, "read")
	r.vals["store.validate_ms_mean"] = meanMs(warm.st, "validate")
	r.vals["store.hits"] = float64(warm.st.Stats().Hits)
	r.vals["store.quarantined"] = float64(cold.st.Stats().Quarantined + warm.st.Stats().Quarantined)
	return r, nil
}

// workloads returns the benchmark's workloads in their canonical order.
func workloads(e *env) []benchWorkload {
	rcBasic := kernelRuns(e, 1.0, false, nil, "BASIC")
	extMesh := kernelRuns(e, 0.5, false, func(c *ccsim.Config) {
		c.Net = ccsim.Mesh
		c.LinkBits = 16
		c.SLCBlocks = 256
	}, "P+CW", "P+M-SC")
	observed := kernelRuns(e, 0.25, true, nil, "BASIC", "P+CW")
	runSet := func(name string, specs []runSpec) func(*env, int, bool) (passResult, error) {
		return func(e *env, n int, traced bool) (passResult, error) {
			return runSetPass(e, name, specs, n, traced)
		}
	}
	return []benchWorkload{
		{
			name:     "rc-basic",
			perRound: 5, passSecs: 0.95,
			pass: runSet("rc-basic", rcBasic),
		},
		{
			name:     "ext-mesh",
			perRound: 5, passSecs: 0.9,
			pass: runSet("ext-mesh", extMesh),
		},
		{
			name:     "observed",
			perRound: 6, passSecs: 0.8,
			pass: runSet("observed", observed),
		},
		{
			name:     "sweep",
			perRound: 1, passSecs: 1.7,
			pass: sweepPass,
		},
	}
}
