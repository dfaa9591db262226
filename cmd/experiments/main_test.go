package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

// TestSweepCompleteRecordsHostCost runs the whole sweep at a tiny scale
// with -log-json and checks that its closing record says where the host
// time went: wall time, collector cycles and heap allocated.
func TestSweepCompleteRecordsHostCost(t *testing.T) {
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	os.Stderr = stderr
	code, _ := runCLI(t, "experiments", "-exp", "all", "-scale", "0.02", "-procs", "4", "-log-json")
	os.Stderr = oldStderr
	if err := stderr.Close(); err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	logs, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(logs), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil || rec["msg"] != "sweep complete" {
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
	t.Fatalf("no sweep complete record in:\n%s", logs)
}
