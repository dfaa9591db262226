package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"ccsim"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestQuickEmitsEveryMetric runs the whole benchmark at -quick size with
// the traced round and checks that every metric BENCHMARK.json names comes
// out with its unit, that nothing failed, and that no end-to-end metric
// reads 0.
func TestQuickEmitsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	path := filepath.Join(t.TempDir(), "quick.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep fullReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(bf.Workloads) {
		t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(rep.Workloads), len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		wr, ok := rep.Workloads[w.Name]
		if !ok {
			t.Fatalf("workload %s missing from the report", w.Name)
		}
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d (fail_frac must be 0)", w.Name, wr.Attempted, wr.Failed)
		}
		for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
			got, ok := wr.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s emitted=%v unit=%q, want unit %q", w.Name, m.Name, ok, got.Unit, m.Unit)
			}
		}
		for _, m := range bf.EndToEnd {
			if got := wr.Metrics[m.Name]; got.Median <= 0 || got.N == 0 {
				t.Errorf("%s: end-to-end %s = %v over %d passes, want > 0", w.Name, m.Name, got.Median, got.N)
			}
		}
	}
}

// TestResultLine checks the one-line JSON a single-workload run ends with.
func TestResultLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", "rc-basic", "--seed", "7", "--seconds", "1", "--trace", trace, "-quick"}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		// One timed pass of the five runs, plus one traced pass with -trace 1.
		want, runs := len(endToEnd), 5
		if trace == "1" {
			want, runs = len(perLayer), 10
		}
		if !line.Correct || line.Attempted != runs || line.Failed != 0 || len(line.Metrics) != want {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d metrics=%d, want true %d 0 %d",
				trace, line.Correct, line.Attempted, line.Failed, len(line.Metrics), runs, want)
		}
	}
}

// TestBadArgumentsFail checks that usage errors exit non-zero without a
// result line.
func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope", "-quick"}, {"-trace", "2"}, {"-seconds", "0"}, {"extra"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want non-zero and no output", args, code, out.String())
		}
	}
}

// TestPerturbedReferenceFails is the correctness gate's self-check: one
// changed pinned number, or a changed sweep hash, must count as a failure.
func TestPerturbedReferenceFails(t *testing.T) {
	ref, err := loadReference(pinnedReference)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{quick: true, jobs: 2, ref: ref}
	ws := workloads(e)
	p, err := ws[0].pass(e, 0, false)
	if err != nil || p.failed != 0 {
		t.Fatalf("pinned reference: failed=%d err=%v, want a clean pass", p.failed, err)
	}

	key := "quick/rc-basic/lu/BASIC"
	pin, ok := ref.Runs[key]
	if !ok {
		t.Fatalf("reference lacks %s", key)
	}
	pin.ExecTime++
	ref.Runs[key] = pin
	if p, err := ws[0].pass(e, 1, false); err != nil || p.failed != 1 {
		t.Errorf("perturbed run: failed=%d err=%v, want exactly 1 failure", p.failed, err)
	}

	ref.Tables["quick/sweep"] = strings.Repeat("0", 64)
	if p, err := ws[3].pass(e, 0, false); err != nil || p.failed == 0 {
		t.Errorf("perturbed sweep hash: failed=%d err=%v, want a failure", p.failed, err)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9.0, 2.0, 7.75}, 1.625, 3.5, 8.375},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.xs, s, c.q1, c.m, c.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestVerdictPairRule(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.25, 1.0, 0.75, 1.2, 0.9, 1.35, 0.65}
	nineOfTen := scaled(0.9)
	nineOfTen[3] = 1.5
	eightOfTen := scaled(0.9)
	eightOfTen[3], eightOfTen[7] = 1.5, 1.5
	cases := []struct {
		name     string
		old, new []float64
		lower    bool
		bound    float64
		want     string
	}{
		{"faster everywhere", base, scaled(0.9), true, 0.1, improved},
		{"nine of ten pairs suffice", base, nineOfTen, true, 0.1, improved},
		{"eight of ten do not", base, eightOfTen, true, 0.5, unchanged},
		{"gain inside the parent's spread", base, scaled(0.995), true, 0.1, unchanged},
		{"higher is better", base, scaled(1.1), false, 0.1, improved},
		{"slower beyond the bound", base, scaled(1.2), true, 0.1, worse},
		{"slower within the bound", base, scaled(1.05), true, 0.1, unchanged},
		{"spread wider than the bound", noisy, scaled(1.2), true, 0.1, unresolved},
		{"every change run worse", base, scaled(2), true, 0.01, worse},
		{"exact counts equal", []float64{5, 5, 5}, []float64{5, 5, 5}, true, 0.01, unchanged},
		{"exact counts lower", []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, []float64{4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, true, 0.01, improved},
		{"unpaired", base, base[:3], true, 0.1, unresolved},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.new, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestLayerOf pins the attribution rules on hand-written stacks, innermost
// frame first.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"ccsim/internal/core.(*CacheCtl).read", "ccsim/internal/sim.(*Engine).Run", "ccsim.Run"}, "core"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "ccsim/internal/core.newMsg"}, rtMalloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, rtGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "ccsim/internal/core.x"}, rtGC},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1_fast64", "ccsim/internal/core.x"}, rtMap},
		{[]string{"runtime.memmove", "ccsim/internal/sim.(*Engine).push"}, rtOther},
		{[]string{"encoding/json.(*encodeState).string", "encoding/json.Marshal", "ccsim/internal/store.(*Store).Put"}, "store"},
		{[]string{"sort.insertionSort", "ccsim/internal/sim.sortBy[go.shape.*ccsim/internal/core.msg]"}, "sim"},
		{[]string{"ccsim/internal/syncprim.(*Lock).Acquire", "ccsim/internal/core.(*Home).lock"}, "core"},
		{[]string{"ccsim.convertResult", "ccsim.Run"}, "machine"},
		{[]string{"ccsim/exp.(*Scheduler).exec"}, "exp"},
		{[]string{"main.drain", "main.runSetPass"}, "bench"},
		{[]string{"syscall.Syscall6", "os.(*File).Write"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestProfileDecoderOnRealProfile profiles real simulations and checks that
// the decoder reads the runtime's own encoding: samples carry CPU time, and
// simulator and allocator frames land in their layers.
func TestProfileDecoderOnRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	cfg := ccsim.DefaultConfig()
	cfg.Workload = "lu"
	cfg.Scale = 0.25
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		if _, err := ccsim.Run(cfg); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p) == 0 {
		t.Skip("no CPU samples collected on this host")
	}
	lt := layerTimes{}
	lt.add(p)
	if lt["sim"]+lt["core"] == 0 {
		t.Errorf("no CPU charged to sim or core: %v", lt)
	}
	for _, s := range p {
		if s.nanos <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample without time or stack: %+v", s)
		}
		leaf := s.stack[0]
		if strings.HasPrefix(leaf, "ccsim/internal/core.") && layerOf(s.stack) != "core" {
			t.Errorf("core leaf %s charged to %s", leaf, layerOf(s.stack))
		}
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "runtime.mallocgc") && layerOf(s.stack) != rtMalloc && layerOf(s.stack) != rtGC {
				t.Errorf("allocator stack %v charged to %s", s.stack, layerOf(s.stack))
			}
		}
	}
	if runtime.GOOS == "linux" && lt.total() < int64(100*time.Millisecond) {
		t.Errorf("profile holds %v of CPU time over 1 s of simulation", time.Duration(lt.total()))
	}
}

// TestNamesInSync keeps the Go catalogue, BENCHMARK.json and the README's
// metric tables naming the same metrics with the same units and bounds.
func TestNamesInSync(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var wantWl []string
	for _, w := range workloads(&env{}) {
		wantWl = append(wantWl, w.name)
	}
	var gotWl []string
	for _, w := range bf.Workloads {
		gotWl = append(gotWl, w.Name)
	}
	if strings.Join(gotWl, ",") != strings.Join(wantWl, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", gotWl, wantWl)
	}
	same := func(what string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", what, i, g, d)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)

	readme := readmeCatalogue(t)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		row, ok := readme[d.Name]
		if !ok {
			t.Errorf("README catalogue lacks %s", d.Name)
			continue
		}
		if row[0] != d.Unit || row[1] != d.Better {
			t.Errorf("README row %s: unit %q better %q, want %q %q", d.Name, row[0], row[1], d.Unit, d.Better)
		}
		if d.Bound > 0 && row[2] != strconv.FormatFloat(d.Bound*100, 'g', -1, 64)+"%" {
			t.Errorf("README row %s: bound %q, want %g%%", d.Name, row[2], d.Bound*100)
		}
		delete(readme, d.Name)
	}
	for name := range readme {
		t.Errorf("README catalogue names %s, which the benchmark does not emit", name)
	}
}

// readmeCatalogue returns the rows of the README's "Metric catalogue"
// section: name -> [unit, better, bound]. Rows look like
// "| `name` | unit | better | bound | meaning |".
func readmeCatalogue(t *testing.T) map[string][3]string {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string][3]string{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Metric catalogue"
		}
		if !in || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 6 {
			t.Fatalf("README catalogue row %q has too few cells", line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		rows[name] = [3]string{strings.TrimSpace(cells[2]), strings.TrimSpace(cells[3]), strings.TrimSpace(cells[4])}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
