package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ccsim/internal/prof"
)

// runCLI invokes run() in-process with the given arguments, capturing
// stdout, and returns the exit code and captured output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet(args[0], flag.ExitOnError)
	oldArgs, oldStdout := os.Args, os.Stdout
	t.Cleanup(func() { os.Args, os.Stdout = oldArgs, oldStdout })
	os.Args = args
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = out
	code := run()
	os.Stdout = oldStdout
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(body)
}

// TestProfileFlagsRoundTrip runs the cheapest experiment with both
// profiling flags and checks the CLI leaves parseable pprof files behind,
// and that a profile that cannot be written fails the command instead of
// vanishing.
func TestProfileFlagsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, out := runCLI(t, "experiments",
		"-exp", "table1", "-q",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "table1") {
		t.Errorf("experiment output missing:\n%s", out)
	}
	for _, p := range []string{cpu, mem} {
		if err := prof.ValidateProfile(p); err != nil {
			t.Errorf("profile invalid: %v", err)
		}
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a write error")
	}
	for _, f := range []string{"-cpuprofile", "-memprofile"} {
		if code, _ := runCLI(t, "experiments", "-exp", "table1", "-q", f, "/dev/full"); code != 1 {
			t.Errorf("%s /dev/full: exit code %d, want 1", f, code)
		}
	}
}

// runCLILogs is runCLI with stderr captured too: it returns the exit code
// and the JSON records stderr carried (run with -log-json).
func runCLILogs(t *testing.T, args ...string) (int, []map[string]any) {
	t.Helper()
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	os.Stderr = stderr
	code, _ := runCLI(t, args...)
	os.Stderr = oldStderr
	if err := stderr.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	for _, line := range strings.Split(string(logs), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil {
			recs = append(recs, rec)
		}
	}
	return code, recs
}

// TestSweepCompleteRecordsHostCost runs the whole sweep at a tiny scale
// with -log-json and checks that its closing record says where the host
// time went: wall time, collector cycles and heap allocated.
func TestSweepCompleteRecordsHostCost(t *testing.T) {
	code, recs := runCLILogs(t, "experiments", "-exp", "all", "-scale", "0.02", "-procs", "4", "-log-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, rec := range recs {
		if rec["msg"] != "sweep complete" {
			continue
		}
		if d, err := time.ParseDuration(fmt.Sprint(rec["elapsed"])); err != nil || d <= 0 {
			t.Errorf("elapsed = %v, want a positive duration", rec["elapsed"])
		}
		if n, ok := rec["gc_cycles"].(float64); !ok || n < 0 {
			t.Errorf("gc_cycles = %v, want a count", rec["gc_cycles"])
		}
		if mb, ok := rec["alloc_mb"].(float64); !ok || mb <= 0 {
			t.Errorf("alloc_mb = %v, want a positive size", rec["alloc_mb"])
		}
		return
	}
	t.Fatalf("no sweep complete record in %d stderr records", len(recs))
}

// TestSweepUniqueRunsMatchGolden runs the sweep that golden/ records and
// checks it simulates one run per golden file, 265: a run's metrics file
// and its scheduler key must name the same configuration, so a sweep that
// simulates one configuration under two keys (an SLC of 0 ways and one of
// 1 way, both direct-mapped, did) fails here.
func TestSweepUniqueRunsMatchGolden(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("..", "..", "golden", "*.json"))
	if err != nil || len(golden) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	code, recs := runCLILogs(t, "experiments", "-exp", "all", "-scale", "0.02", "-procs", "16", "-log-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, rec := range recs {
		if rec["msg"] == "sweep complete" {
			if n, ok := rec["unique"].(float64); !ok || int(n) != len(golden) {
				t.Errorf("sweep simulated %v unique runs, want one per golden file (%d)", rec["unique"], len(golden))
			}
			return
		}
	}
	t.Fatalf("no sweep complete record in %d stderr records", len(recs))
}

// TestFaultReportOrderFixed runs the same injected-fault sweep twice on two
// workers and requires the faulted runs to be reported in the same order
// both times: by workload, protocol and run ID. The sweep repeats
// mp3d/BASIC across experiments, so most faulted runs tie on workload and
// protocol, and the order they finish in varies between invocations. (A
// checked run is never deduplicated, so one configuration submitted by
// several experiments faults, identically, once per submission.)
func TestFaultReportOrderFixed(t *testing.T) {
	args := []string{"experiments", "-exp", "all", "-scale", "0.02", "-procs", "8", "-jobs", "2",
		"-check", "-q", "-log-json", "-inject-fault", "skip-sharer@mp3d/BASIC"}
	var seqs [2][]string
	for i := range seqs {
		code, recs := runCLILogs(t, args...)
		if code != 1 {
			t.Fatalf("sweep %d: exit code %d, want 1", i, code)
		}
		var last [3]string
		for _, rec := range recs {
			if rec["msg"] != "run faulted" {
				continue
			}
			key := [3]string{fmt.Sprint(rec["workload"]), fmt.Sprint(rec["protocol"]), fmt.Sprint(rec["run_id"])}
			if slices.Compare(key[:], last[:]) < 0 {
				t.Errorf("sweep %d: %v reported after %v", i, key, last)
			}
			last = key
			seqs[i] = append(seqs[i], key[2])
		}
	}
	if len(seqs[0]) < 2 {
		t.Fatalf("%d faulted runs, want several sharing mp3d/BASIC", len(seqs[0]))
	}
	if !slices.Equal(seqs[0], seqs[1]) {
		t.Errorf("faulted runs reported in different orders:\n%v\n%v", seqs[0], seqs[1])
	}
}

// TestSweepTablesPinned pins the sha256 of the tables `experiments -exp all`
// prints at the golden sweep's size, clean and with one cell's run faulting:
// golden/ pins every run's metrics, this pins how the experiments render
// them, FAULT cells included. Diagnostics go to the null device.
func TestSweepTablesPinned(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	os.Stderr = null
	t.Cleanup(func() {
		os.Stderr = oldStderr
		null.Close()
	})
	for _, tc := range []struct {
		fault      string
		code       int
		faultLines int
		sum        string
	}{
		{"", 0, 0, "4b4f71d0ea3cb7a08ffea19ea5dd75f2202422fdf8bd6d19779f3cd9326f230c"},
		{"mp3d/BASIC", 1, 55, "9a5ed56a40f7712831a3f1c986259127046077a011d32851e4816f7d3c6926d6"},
		{"mp3d/P+CW", 1, 17, "1324804fdcfbc0a7d3ede8a91807dd97c3c4a8ee3d0a2bc2d2f5c5c15f2c32f0"},
	} {
		args := []string{"experiments", "-exp", "all", "-scale", "0.02", "-procs", "16", "-q"}
		if tc.fault != "" {
			args = append(args, "-inject-fault", tc.fault)
		}
		code, out := runCLI(t, args...)
		if code != tc.code {
			t.Errorf("-inject-fault %q: exit code %d, want %d", tc.fault, code, tc.code)
		}
		lines := 0
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, "FAULT") {
				lines++
			}
		}
		if lines != tc.faultLines {
			t.Errorf("-inject-fault %q: %d lines with a FAULT cell, want %d", tc.fault, lines, tc.faultLines)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); sum != tc.sum {
			t.Errorf("-inject-fault %q: stdout sha256 %s, want %s", tc.fault, sum, tc.sum)
		}
	}
}
