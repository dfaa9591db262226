package exp

import (
	"encoding/json"
	"fmt"
	"testing"

	"ccsim"
)

// schedGrid is a small but representative run grid: two workloads crossed
// with protocol combinations, consistency models and both networks.
func schedGrid() []ccsim.Config {
	var grid []ccsim.Config
	o := tiny()
	for _, wl := range []string{"mp3d", "ocean"} {
		for _, c := range Combos()[:4] {
			cfg := o.config(wl)
			cfg.Extensions = c.Ext
			grid = append(grid, cfg)

			mesh := cfg
			mesh.Net = ccsim.Mesh
			grid = append(grid, mesh)
		}
		sc := o.config(wl)
		sc.SC = true
		grid = append(grid, sc)
	}
	return grid
}

// TestSchedulerDeterminism is the parallelism regression gate: the same
// grid simulated at 1 worker and at 8 workers must produce byte-identical
// Result JSON for every cell.
func TestSchedulerDeterminism(t *testing.T) {
	grid := schedGrid()
	collect := func(jobs int) [][]byte {
		s := NewScheduler(jobs, "")
		pends := make([]*Pending, len(grid))
		for i, cfg := range grid {
			pends[i] = s.Submit(cfg)
		}
		out := make([][]byte, len(grid))
		for i, p := range pends {
			r, err := p.Wait()
			if err != nil {
				t.Fatalf("jobs=%d cell %d: %v", jobs, i, err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	seq := collect(1)
	par := collect(8)
	for i := range grid {
		if string(seq[i]) != string(par[i]) {
			t.Errorf("cell %d (%s): -jobs 1 and -jobs 8 results differ\nseq: %s\npar: %s",
				i, grid[i].Workload, seq[i], par[i])
		}
	}
}

// TestSchedulerDedup checks the run cache: resubmitting a configuration
// returns the original handle, and equivalent-but-not-identical
// configurations (explicit defaults) share one run.
func TestSchedulerDedup(t *testing.T) {
	s := NewScheduler(2, "")
	cfg := tiny().config("mp3d")
	p1 := s.Submit(cfg)
	p2 := s.Submit(cfg)
	if p1 != p2 {
		t.Fatal("identical configs got distinct runs")
	}
	// Scale 0 means 1.0 inside ccsim.Run; the fingerprint must agree.
	a, b := cfg, cfg
	a.Scale, b.Scale = 0, 1.0
	ka, oka := Fingerprint(a)
	kb, okb := Fingerprint(b)
	if !oka || !okb || ka != kb {
		t.Fatalf("scale 0 and 1.0 fingerprints differ: %q vs %q", ka, kb)
	}
	other := cfg
	other.Extensions = ccsim.Ext{P: true}
	if s.Submit(other) == p1 {
		t.Fatal("distinct configs shared a run")
	}
	if got := s.Stats().Unique; got != 2 {
		t.Fatalf("Unique = %d after 2 distinct configs", got)
	}
	if _, err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerSharedAcrossExperiments verifies the cross-experiment reuse
// the -exp all path relies on: Table 2's grid is a subset of Figure 2's,
// so running Table 2 after Figure 2 on a shared scheduler adds no runs.
func TestSchedulerSharedAcrossExperiments(t *testing.T) {
	o := tiny()
	o.Sched = NewScheduler(4, "")
	if _, err := Figure2(o); err != nil {
		t.Fatal(err)
	}
	after2 := o.Sched.Stats().Unique
	if _, err := Table2(o); err != nil {
		t.Fatal(err)
	}
	if got := o.Sched.Stats().Unique; got != after2 {
		t.Fatalf("Table2 added %d runs beyond Figure2's grid", got-after2)
	}
	// Figure 4 shares the full RC grid too.
	if _, err := Figure4(o); err != nil {
		t.Fatal(err)
	}
	if got := o.Sched.Stats().Unique; got != after2 {
		t.Fatalf("Figure4 added %d runs beyond Figure2's grid", got-after2)
	}
}

// TestSchedulerUncacheable checks that configurations with side channels
// run once per submission instead of hitting the cache.
func TestSchedulerUncacheable(t *testing.T) {
	all := tiny().config("mp3d")
	for _, sc := range sideChannels {
		cfg := tiny().config("mp3d")
		sc.attach(&cfg)
		if _, ok := Fingerprint(cfg); ok {
			t.Errorf("config with %s fingerprinted as cacheable", sc.name)
		}
		sc.attach(&all)
	}
	// Every Submit fingerprints its configuration: the side-channel list
	// must cost no allocation.
	if n := testing.AllocsPerRun(100, func() {
		bare := all
		detachSideChannels(&bare)
	}); n != 0 {
		t.Errorf("detachSideChannels allocates %v times per call, want 0", n)
	}
	cfg := tiny().config("mp3d")
	cfg.TraceWriter = discard{}
	s := NewScheduler(2, "")
	if s.Submit(cfg) == s.Submit(cfg) {
		t.Fatal("uncacheable submissions shared a run")
	}
	if got := s.Stats().Unique; got != 0 {
		t.Fatalf("uncacheable runs counted as unique: %d", got)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// sideChannels attaches each of ccsim.Config's side channels: the
// attachments whose effects reach beyond the Result.
var sideChannels = []struct {
	name   string
	attach func(*ccsim.Config)
}{
	{"TraceWriter", func(c *ccsim.Config) { c.TraceWriter = discard{} }},
	{"Telemetry", func(c *ccsim.Config) { c.Telemetry = ccsim.NewTelemetry() }},
	{"Check", func(c *ccsim.Config) { c.Check = ccsim.NewChecker() }},
	{"Sharing", func(c *ccsim.Config) { c.Sharing = ccsim.NewSharingAnalytics() }},
	{"Cancel", func(c *ccsim.Config) { c.Cancel = &ccsim.Cancel{} }},
}

// TestFingerprintCoversConfig guards the fingerprint against new Config
// fields silently aliasing distinct runs: every field that changes a
// simulation must change the key.
func TestFingerprintCoversConfig(t *testing.T) {
	base := tiny().config("mp3d")
	mutants := []func(*ccsim.Config){
		func(c *ccsim.Config) { c.Workload = "ocean" },
		func(c *ccsim.Config) { c.Scale = 0.5 },
		func(c *ccsim.Config) { c.Procs = 4 },
		func(c *ccsim.Config) { c.Extensions.P = true },
		func(c *ccsim.Config) { c.Extensions.M = true },
		func(c *ccsim.Config) { c.Extensions.CW = true },
		func(c *ccsim.Config) { c.SC = true },
		func(c *ccsim.Config) { c.Net = ccsim.Mesh },
		func(c *ccsim.Config) { c.LinkBits = 16 },
		func(c *ccsim.Config) { c.SLCBlocks = 512 },
		func(c *ccsim.Config) { c.SLCWays = 2 },
		func(c *ccsim.Config) { c.FLWBEntries = 4 },
		func(c *ccsim.Config) { c.SLWBEntries = 4 },
		func(c *ccsim.Config) { c.PrefetchMaxK = 3 },
		func(c *ccsim.Config) { c.CWThreshold = 5 },
		func(c *ccsim.Config) { c.WriteCacheBlocks = 8 },
		func(c *ccsim.Config) { c.PrefetchNackDirty = true },
		func(c *ccsim.Config) { c.DirPointers = 4 },
		func(c *ccsim.Config) { c.VerifyData = true },
		// Watchdog limits and fault injection change whether a run
		// completes, so they must key the cache.
		func(c *ccsim.Config) { c.MaxEvents = 1000 },
		func(c *ccsim.Config) { c.Deadline = 1000 },
		func(c *ccsim.Config) { c.NoProgressEvents = 1000 },
		func(c *ccsim.Config) { c.FaultInject = "mp3d/BASIC" },
	}
	baseKey, ok := Fingerprint(base)
	if !ok {
		t.Fatal("base config not cacheable")
	}
	seen := map[string]int{baseKey: -1}
	for i, mut := range mutants {
		cfg := base
		mut(&cfg)
		key, ok := Fingerprint(cfg)
		if !ok {
			t.Fatalf("mutant %d not cacheable", i)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("mutant %d aliases mutant %d: %q", i, prev, key)
		}
		seen[key] = i
	}
}

// TestSchedulerStats drives a small grid through the scheduler and checks
// its counters: every Submit is accounted, dedup hits are split out, and
// the scheduler ends drained (nothing queued or running, everything
// completed).
func TestSchedulerStats(t *testing.T) {
	s := NewScheduler(2, "")
	o := tiny()
	var pends []*Pending
	for _, wl := range []string{"mp3d", "ocean"} {
		for _, c := range Combos()[:2] {
			cfg := o.config(wl)
			cfg.Extensions = c.Ext
			pends = append(pends, s.Submit(cfg))
			pends = append(pends, s.Submit(cfg)) // dedup hit
		}
	}
	for _, p := range pends {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Submitted != 8 {
		t.Fatalf("Submitted = %d, want 8", st.Submitted)
	}
	if st.Unique != 4 || st.DedupHits != 4 {
		t.Fatalf("Unique/DedupHits = %d/%d, want 4/4", st.Unique, st.DedupHits)
	}
	if st.Completed != 4 || st.Failed != 0 {
		t.Fatalf("Completed/Failed = %d/%d, want 4/0", st.Completed, st.Failed)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("drained scheduler still shows queued=%d running=%d", st.Queued, st.Running)
	}
}

// TestSchedulerRunning holds the single worker slot on a caller-controlled
// run and checks the running and queued counters while it is held and
// after both submitted runs complete.
func TestSchedulerRunning(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		started <- struct{}{}
		<-release
		return &ccsim.Result{Workload: cfg.Workload}, nil
	})
	s := NewScheduler(1, "")
	pending := []*Pending{s.Submit(cfgN(0)), s.Submit(cfgN(1))}
	<-started
	if st := s.Stats(); st.Running != 1 || st.Queued != 1 {
		t.Fatalf("with one run held: running=%d queued=%d, want 1 and 1", st.Running, st.Queued)
	}
	close(release)
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Completed != 2 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("post-run stats = %+v", st)
	}
}

// TestSchedulerStatsFailed checks the failure counter matches the ledger.
func TestSchedulerStatsFailed(t *testing.T) {
	old := runSim
	runSim = func(cfg ccsim.Config) (*ccsim.Result, error) {
		return nil, fmt.Errorf("boom %s", cfg.Workload)
	}
	defer func() { runSim = old }()
	s := NewScheduler(2, "")
	if _, err := s.Submit(tiny().config("mp3d")).Wait(); err == nil {
		t.Fatal("stubbed failure did not surface")
	}
	st := s.Stats()
	if st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("Failed/Completed = %d/%d, want 1/0", st.Failed, st.Completed)
	}
	if len(s.Failed()) != 1 {
		t.Fatalf("ledger holds %d entries", len(s.Failed()))
	}
}

// TestCheckedSweepRuns pins Options.Check end to end: the option attaches a
// live checker to every generated config, checked submissions bypass the
// dedup cache, and a clean workload passes under the checker through the
// scheduler path.
func TestCheckedSweepRuns(t *testing.T) {
	o := tiny()
	o.Check = true
	cfg := o.config("mp3d")
	if cfg.Check == nil {
		t.Fatal("Options.Check did not attach a checker")
	}
	s := NewScheduler(2, "")
	a, b := s.Submit(cfg), s.Submit(cfg)
	if a == b {
		t.Fatal("checked submissions shared a run")
	}
	for _, p := range []*Pending{a, b} {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("checked run failed: %v", err)
		}
	}
}
