// Command bench is the simulator's benchmark. It drives ccsim only through
// its exported functions, runs four workloads that stress different layers,
// checks every simulated result against a pinned reference, and prints each
// end-to-end metric (and, with a traced round, each per-layer metric) by
// name with its unit, median, quartiles and sample count.
//
//	bash bench/run.sh                          # all workloads, interleaved
//	bash bench/run.sh -workload sweep -seconds 20 -trace 0
//	cd bench && go run . -update               # re-pin testdata/reference.json
//
// See README.md for the workloads, the metric catalogue and how to claim a
// gain with abtest.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload; empty runs every workload in interleaved rounds")
	seed := fs.Int64("seed", 0, "input seed: the order of runs within each pass, of experiments in the sweep, and of workloads within each round (0 = nominal order)")
	seconds := fs.Float64("seconds", 80, "nominal length of the timed rounds, turned into a fixed pass count")
	trace := fs.Int("trace", 1, "1 adds one traced round (CPU profile, spans) and reports per-layer metrics; 0 reports end-to-end metrics only")
	jsonPath := fs.String("json", "", "also write every metric's median, quartiles and N, with host facts, to this file")
	quick := fs.Bool("quick", false, "smoke run: problem sizes divided by 8, one pass per workload and round")
	update := fs.Bool("update", false, "re-pin "+refPath+" from seed-0 runs (run from the bench directory) and exit")
	verdictDir := fs.String("verdict", "", "print A/B verdicts for the old-*.json / new-*.json run pairs in this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	if *verdictDir != "" {
		if err := printVerdicts(stdout, *verdictDir); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	e := &env{seed: *seed, quick: *quick, jobs: runtime.NumCPU()}
	if *update {
		if err := updateReference(e); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference(pinnedReference)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e.ref = ref
	if e.probe, err = newHostProbe(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer e.probe.close()

	var sel []*wlRun
	for _, w := range workloads(e) {
		if *only == "" || *only == w.name {
			sel = append(sel, &wlRun{w: w})
		}
	}
	if len(sel) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
		return 2
	}
	rounds := plannedRounds(sel, *seconds, *quick)
	if err := runRounds(e, sel, 0, rounds, false); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *trace == 1 {
		if err := runRounds(e, sel, rounds, 1, true); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	rep := fullReport{
		Host: host(), Seed: *seed, Seconds: *seconds, Rounds: rounds, Quick: *quick,
		Workloads: map[string]wlReport{},
	}
	correct := true
	for _, w := range sel {
		wr := w.report()
		rep.Workloads[w.w.name] = wr
		printTable(stdout, w.w.name, wr)
		correct = correct && wr.Failed == 0 && wr.Attempted > 0
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(sel) == 1 {
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		wr := rep.Workloads[sel[0].w.name]
		line := resultLine{Correct: correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]resultValue{}}
		for _, d := range defs {
			line.Metrics[d.Name] = resultValue{Value: wr.Metrics[d.Name].Value, Unit: d.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !correct {
		fmt.Fprintln(stderr, "bench: FAILED: some runs errored or differ from the pinned reference")
		return 1
	}
	return 0
}

// wlRun collects one workload's passes.
type wlRun struct {
	w                 benchWorkload
	n                 int // passes run so far; seeds each pass's order
	timed, traced     []passResult
	attempted, failed int
}

// plannedRounds turns -seconds into a round count from the nominal pass
// times, so run length is a fixed amount of work on every commit.
func plannedRounds(sel []*wlRun, seconds float64, quick bool) int {
	if quick {
		return 1
	}
	per := 0.0
	for _, w := range sel {
		per += float64(w.w.perRound) * w.w.passSecs
	}
	return max(1, int(math.Round(seconds/per)))
}

// runRounds runs rounds interleaved rounds: each visits every workload once,
// in the seed's order, for that workload's passes per round (one with
// -quick). first numbers the rounds so every round shuffles differently.
// The host-speed probe runs, after a forced GC, before every pass.
func runRounds(e *env, sel []*wlRun, first, rounds int, traced bool) error {
	for r := first; r < first+rounds; r++ {
		for _, i := range e.order("rounds", r, len(sel)) {
			w := sel[i]
			k := w.w.perRound
			if e.quick {
				k = 1
			}
			for j := 0; j < k; j++ {
				runtime.GC()
				probe := e.probe.run()
				p, err := w.w.pass(e, w.n, traced)
				if err != nil {
					return fmt.Errorf("%s pass %d: %w", w.w.name, w.n, err)
				}
				p.vals["probe_s"] = probe
				w.n++
				w.attempted += p.attempted
				w.failed += p.failed
				if traced {
					w.traced = append(w.traced, p)
				} else {
					w.timed = append(w.timed, p)
				}
			}
		}
	}
	return nil
}

// collect summarizes one per-pass value over passes, each multiplied by
// scale.
func collect(ps []passResult, name string, scale float64) summary {
	var xs []float64
	for _, p := range ps {
		if v, ok := p.vals[name]; ok {
			xs = append(xs, v*scale)
		}
	}
	return summarize(xs)
}

// hostSpeed is the host's speed over passes relative to the nominal one:
// probeNominal over the first quartile of the probe's times.
func hostSpeed(ps []passResult) float64 {
	return ratio(probeNominal, collect(ps, "probe_s", 1).Q1)
}

// metricOut is one metric of a report: the value it reports, and the
// distribution over passes that value comes from.
type metricOut struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
}

func newMetricOut(d metricDef, s summary) metricOut {
	return metricOut{Unit: d.Unit, Value: d.value(s), summary: s}
}

type wlReport struct {
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	TimedPasses  int                  `json:"timed_passes"`
	TracedPasses int                  `json:"traced_passes"`
	Metrics      map[string]metricOut `json:"metrics"`
}

func (w *wlRun) report() wlReport {
	wr := wlReport{
		Attempted: w.attempted, Failed: w.failed,
		TimedPasses: len(w.timed), TracedPasses: len(w.traced),
		Metrics: map[string]metricOut{},
	}
	speed := hostSpeed(w.timed)
	for _, d := range endToEnd {
		scale := 1.0
		if d.hostTime {
			scale = speed
		}
		wr.Metrics[d.Name] = newMetricOut(d, collect(w.timed, d.Name, scale))
	}
	if len(w.traced) == 0 {
		return wr
	}
	for _, d := range perLayer {
		var s summary
		switch {
		case d.Name == "bench.host_speed":
			s = summary{Median: speed, Q1: speed, Q3: speed, N: len(w.timed)}
		case d.Name == "bench.trace_overhead":
			base := collect(w.timed, "wall_s", 1).Q1
			tr := collect(w.traced, "wall_s", 1)
			s = summary{Median: ratio(tr.Median, base), Q1: ratio(tr.Q1, base), Q3: ratio(tr.Q3, base), N: tr.N}
		case d.traced:
			s = collect(w.traced, d.Name, 1)
		default:
			s = collect(w.timed, d.Name, 1)
		}
		wr.Metrics[d.Name] = newMetricOut(d, s)
	}
	return wr
}

func printTable(w io.Writer, name string, wr wlReport) {
	status := "correct"
	if wr.Failed > 0 {
		status = "FAILED"
	}
	fmt.Fprintf(w, "%s: %d timed + %d traced passes, %d operations attempted, %d failed (%s)\n",
		name, wr.TimedPasses, wr.TracedPasses, wr.Attempted, wr.Failed, status)
	fmt.Fprintf(w, "  %-28s %-14s %14s %14s %14s %14s %4s\n", "metric", "unit", "value", "median", "q1", "q3", "N")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m, ok := wr.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %-14s %14.6g %14.6g %14.6g %14.6g %4d\n", d.Name, d.Unit, m.Value, m.Median, m.Q1, m.Q3, m.N)
		}
	}
}

// resultLine is the one-line JSON result a single-workload run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

// host describes the machine; run.sh passes the commit in BENCH_COMMIT.
func host() hostFacts {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: commit,
	}
}

type fullReport struct {
	Host      hostFacts           `json:"host"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Rounds    int                 `json:"rounds"`
	Quick     bool                `json:"quick"`
	Workloads map[string]wlReport `json:"workloads"`
}

// updateReference runs every workload once at seed 0, nominal and -quick,
// and writes what it saw as the new reference.
func updateReference(e *env) error {
	e.seed = 0
	e.ref = newRecorder()
	for _, q := range []bool{false, true} {
		e.quick = q
		for _, w := range workloads(e) {
			p, err := w.pass(e, 0, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if p.failed > 0 {
				return fmt.Errorf("%s: %d operations failed; reference not written", w.name, p.failed)
			}
		}
	}
	return e.ref.write(refPath)
}

// printVerdicts pairs the i-th old-*.json report with the i-th new-*.json
// report in dir and prints the verdict for every workload and end-to-end
// metric.
func printVerdicts(w io.Writer, dir string) error {
	load := func(side string) ([]fullReport, error) {
		paths, err := filepath.Glob(filepath.Join(dir, side+"-*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		var out []fullReport
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r fullReport
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	olds, err := load("old")
	if err != nil {
		return err
	}
	news, err := load("new")
	if err != nil {
		return err
	}
	if len(olds) == 0 || len(olds) != len(news) {
		return fmt.Errorf("%s: need as many new-*.json as old-*.json reports, and at least one (have %d and %d)", dir, len(news), len(olds))
	}
	var names []string
	for name := range olds[0].Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d pairs\n%-10s %-18s %14s %14s %9s %7s  %s\n", len(olds), "workload", "metric", "old median", "new median", "change", "wins", "verdict")
	for _, name := range names {
		failed := 0
		for i := range olds {
			failed += olds[i].Workloads[name].Failed + news[i].Workloads[name].Failed
		}
		if failed > 0 {
			fmt.Fprintf(w, "%-10s %d failed operations across the runs: verdicts below are void\n", name, failed)
		}
		for _, d := range endToEnd {
			var o, n []float64
			for i := range olds {
				o = append(o, olds[i].Workloads[name].Metrics[d.Name].Value)
				n = append(n, news[i].Workloads[name].Metrics[d.Name].Value)
			}
			lower := d.Better == "lower"
			mo, mn := summarize(o).Median, summarize(n).Median
			fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %+8.2f%% %3d/%-3d  %s\n", name, d.Name, mo, mn,
				100*ratio(mn-mo, mo), pairWins(o, n, lower), len(o), verdict(o, n, lower, d.Bound))
		}
	}
	return nil
}
