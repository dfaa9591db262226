package ccsim_test

// One benchmark per table and figure of the paper's evaluation (§5), plus
// ablations for the design choices DESIGN.md calls out. Each benchmark
// iteration regenerates the corresponding result at a reduced problem size
// and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and
//
//	go run ./cmd/experiments -exp all
//
// prints the paper-style rows at full size.

import (
	"testing"

	"ccsim"
	"ccsim/exp"
	"ccsim/internal/stats"
)

// benchOptions halves the workloads so a full `go test -bench=.` finishes
// in minutes. Half scale preserves the paper's qualitative shapes; the
// full-size reference numbers live in EXPERIMENTS.md (scale 1.0).
func benchOptions() exp.Options { return exp.Options{Scale: 0.5, Procs: 16} }

func BenchmarkTable1HardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := ccsim.CostTable(16)
		if len(rows) != 4 {
			b.Fatalf("Table 1 has %d rows", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: execution times of all eight
// protocol combinations relative to BASIC under release consistency.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		report := map[string]float64{
			"mp3d/P+CW": 0, "cholesky/P+CW": 0, "ocean/P+CW": 0,
		}
		for _, r := range rows {
			key := r.Workload + "/" + r.Protocol
			if _, ok := report[key]; ok {
				report[key] = r.Relative
			}
		}
		if i == b.N-1 {
			b.ReportMetric(report["mp3d/P+CW"], "mp3d-P+CW-rel")
			b.ReportMetric(report["cholesky/P+CW"], "cholesky-P+CW-rel")
			b.ReportMetric(report["ocean/P+CW"], "ocean-P+CW-rel")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: cold and coherence miss-rate
// components for BASIC, P, CW and P+CW.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "lu" {
					b.ReportMetric(r.Cold["BASIC"], "lu-BASIC-cold%")
					b.ReportMetric(r.Cold["P"], "lu-P-cold%")
				}
				if r.Workload == "ocean" {
					b.ReportMetric(r.Coh["BASIC"], "ocean-BASIC-coh%")
					b.ReportMetric(r.Coh["CW"], "ocean-CW-coh%")
				}
			}
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: P, M and P+M under sequential
// consistency against B-SC, with BASIC-RC as the reference.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "mp3d" && r.Protocol == "P+M" {
					b.ReportMetric(r.Relative, "mp3d-P+M-rel")
				}
				if r.Workload == "cholesky" && r.Protocol == "P+M" {
					b.ReportMetric(r.Relative, "cholesky-P+M-rel")
				}
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the mesh link-width sweep for P+CW
// and P+M.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "mp3d" {
					b.ReportMetric(r.PCW[64], "mp3d-P+CW-64bit")
					b.ReportMetric(r.PCW[16], "mp3d-P+CW-16bit")
					b.ReportMetric(r.PM[16], "mp3d-P+M-16bit")
				}
			}
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: network traffic normalized to
// BASIC.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "mp3d" && (r.Protocol == "P+CW" || r.Protocol == "M") {
					b.ReportMetric(100*r.Traffic, "mp3d-"+r.Protocol+"-traffic%")
				}
			}
		}
	}
}

// BenchmarkSensitivityBuffers regenerates §5.4's small-write-buffer study.
func BenchmarkSensitivityBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.SensBuffers(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityCache regenerates §5.4's 16-KB SLC study.
func BenchmarkSensitivityCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.SensCache(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- Ablation benchmarks (design choices from DESIGN.md) ----------

func runOne(b *testing.B, mutate func(*ccsim.Config)) *ccsim.Result {
	b.Helper()
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "mp3d"
	cfg.Scale = 0.5
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := ccsim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationPrefetchDegree sweeps the prefetcher's maximum degree:
// the adaptive scheme's cap trades coverage against pollution.
func BenchmarkAblationPrefetchDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runOne(b, nil)
		for _, maxK := range []int{1, 4, 8} {
			maxK := maxK
			r := runOne(b, func(cfg *ccsim.Config) {
				cfg.Extensions = ccsim.Ext{P: true}
				cfg.PrefetchMaxK = maxK
			})
			if i == b.N-1 {
				b.ReportMetric(r.RelativeTo(base), "rel-K"+string(rune('0'+maxK)))
			}
		}
	}
}

// BenchmarkAblationCompetitiveThreshold sweeps the competitive threshold:
// the paper recommends 1 with write caches, 4 without.
func BenchmarkAblationCompetitiveThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runOne(b, nil)
		for _, thr := range []int{1, 2, 4} {
			thr := thr
			r := runOne(b, func(cfg *ccsim.Config) {
				cfg.Extensions = ccsim.Ext{CW: true}
				cfg.CWThreshold = thr
			})
			if i == b.N-1 {
				b.ReportMetric(r.RelativeTo(base), "rel-thr"+string(rune('0'+thr)))
			}
		}
	}
}

// BenchmarkAblationWriteCacheSize sweeps the write-cache size around the
// paper's recommended four blocks.
func BenchmarkAblationWriteCacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runOne(b, nil)
		for _, blocks := range []int{1, 4, 16} {
			blocks := blocks
			r := runOne(b, func(cfg *ccsim.Config) {
				cfg.Extensions = ccsim.Ext{CW: true}
				cfg.WriteCacheBlocks = blocks
			})
			if i == b.N-1 {
				b.ReportMetric(r.RelativeTo(base), "rel-wc"+string(rune('0'+blocks%10)))
			}
		}
	}
}

// BenchmarkAblationPrefetchNack compares servicing prefetches that hit
// dirty-remote blocks (the paper's behavior) against nacking them
// (DASH-style).
func BenchmarkAblationPrefetchNack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runOne(b, nil)
		serve := runOne(b, func(cfg *ccsim.Config) { cfg.Extensions = ccsim.Ext{P: true} })
		nack := runOne(b, func(cfg *ccsim.Config) {
			cfg.Extensions = ccsim.Ext{P: true}
			cfg.PrefetchNackDirty = true
		})
		if i == b.N-1 {
			b.ReportMetric(serve.RelativeTo(base), "rel-serve")
			b.ReportMetric(nack.RelativeTo(base), "rel-nack")
		}
	}
}

// BenchmarkExtensionDirectory sweeps the limited-pointer directory study
// (full map vs Dir4B/Dir2B/Dir1B).
func BenchmarkExtensionDirectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.DirectoryStudy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "mp3d" && r.Pointers == 1 {
					b.ReportMetric(r.PCW, "mp3d-Dir1B-P+CW-rel")
				}
			}
		}
	}
}

// BenchmarkExtensionAssociativity sweeps SLC associativity at 16 KB.
func BenchmarkExtensionAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AssociativityStudy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "lu" && r.Ways == 4 {
					b.ReportMetric(r.Basic, "lu-4way-rel")
				}
			}
		}
	}
}

// BenchmarkExtensionScaling sweeps the machine size 4..32 processors.
func BenchmarkExtensionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.ScalingStudy(exp.Options{Scale: 0.25, Procs: 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "cholesky" && r.Procs == 32 {
					b.ReportMetric(r.PCW, "cholesky-32p-P+CW-rel")
				}
			}
		}
	}
}

// BenchmarkVerifiedSimulation measures the cost of data-value verification.
func BenchmarkVerifiedSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runOne(b, func(cfg *ccsim.Config) {
			cfg.Extensions = ccsim.Ext{P: true, CW: true, M: true}
			cfg.VerifyData = true
		})
		if r.ExecTime <= 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// pclocks per wall second for the BASIC machine on MP3D.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var pclocks int64
	for i := 0; i < b.N; i++ {
		r := runOne(b, nil)
		pclocks += r.ExecTime
	}
	b.ReportMetric(float64(pclocks)/b.Elapsed().Seconds(), "pclocks/s")
}

// BenchmarkTelemetryOverhead compares the same P+CW run with telemetry off
// (the default) and on, so the instrumentation's cost stays visible.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOne(b, func(cfg *ccsim.Config) {
				cfg.Extensions = ccsim.Ext{P: true, CW: true}
			})
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOne(b, func(cfg *ccsim.Config) {
				cfg.Extensions = ccsim.Ext{P: true, CW: true}
				cfg.Telemetry = ccsim.NewTelemetry()
			})
		}
	})
}

// TestTelemetryDisabledAddsNoAllocs pins down the disabled path's cost: with
// no collector attached, every telemetry hook the simulator calls is a nil
// no-op that allocates nothing.
func TestTelemetryDisabledAddsNoAllocs(t *testing.T) {
	var tl *ccsim.Telemetry
	if n := testing.AllocsPerRun(100, func() {
		txn := tl.Begin(0, 0, 0, 0)
		tl.Mark(txn, 0, 10)
		tl.End(txn, 20)
		tl.StallInterval(0, "read", 0, 10)
		tl.RecordInstant(0, "grant", 0, 10)
	}); n != 0 {
		t.Fatalf("nil telemetry collector allocates %v times per run, want 0", n)
	}
}

// TestAnalyticsDisabledAddsNoAllocs pins down the sharing analyzer's
// disabled path the same way: with no analyzer attached (the default),
// every hook the cache controllers call is a nil no-op that allocates
// nothing, so analytics-off runs pay only the nil check.
func TestAnalyticsDisabledAddsNoAllocs(t *testing.T) {
	var sh *ccsim.SharingAnalytics
	if n := testing.AllocsPerRun(100, func() {
		sh.OnRead(0, 7)
		sh.OnWrite(0, 7, 3)
		sh.OnMiss(7)
		sh.OnMissLatency(7, 120)
		sh.OnInvalidate(7)
		sh.OnUpdate(7)
		sh.OnTraffic(7, stats.DataMsg, 32)
	}); n != 0 {
		t.Fatalf("nil sharing analyzer allocates %v times per run, want 0", n)
	}
}
