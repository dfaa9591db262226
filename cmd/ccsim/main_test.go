package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// tiny is the argument list of a small, fast simulation.
var tiny = []string{"ccsim", "-workload", "mp3d", "-scale", "0.02", "-procs", "2"}

// requireDevFull skips the test when there is no /dev/full to provoke a
// write error with.
func requireDevFull(t *testing.T) {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a write error")
	}
}

// TestProfileFlagsRoundTrip runs a tiny simulation with both profiling
// flags and checks the CLI leaves parseable pprof files behind — the
// user-facing contract of -cpuprofile/-memprofile — and that a profile
// that cannot be written fails the command instead of vanishing.
func TestProfileFlagsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, out := runCLI(t, append(tiny, "-cpuprofile", cpu, "-memprofile", mem)...)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "event queue") {
		t.Errorf("text report missing the queue-internals line:\n%s", out)
	}
	for _, p := range []string{cpu, mem} {
		if err := prof.ValidateProfile(p); err != nil {
			t.Errorf("profile invalid: %v", err)
		}
	}
	requireDevFull(t)
	for _, f := range []string{"-cpuprofile", "-memprofile"} {
		if code, _ := runCLI(t, append(tiny, f, "/dev/full")...); code != 1 {
			t.Errorf("%s /dev/full: exit code %d, want 1", f, code)
		}
	}
}

// TestTraceFile checks the buffered -trace file, which ends with the run's
// last protocol event, and that every side file (-trace, -sharing,
// -timeline) fails the command when its destination cannot be written,
// instead of silently losing the artifact.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	if code, _ := runCLI(t, append(tiny, "-trace", path)...); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) < 100 || !strings.HasSuffix(string(body), "\n") || !strings.HasPrefix(lines[len(lines)-1], "T") {
		t.Fatalf("trace has %d lines, last %q", len(lines), lines[len(lines)-1])
	}
	requireDevFull(t)
	for _, f := range []string{"-trace", "-sharing", "-timeline"} {
		if code, _ := runCLI(t, append(tiny, f, "/dev/full")...); code != 1 {
			t.Errorf("%s /dev/full: exit code %d, want 1", f, code)
		}
	}
}

// TestTraceAddrsRequiresTrace: a trace filter with no trace to filter is a
// usage error, caught before any simulation starts.
func TestTraceAddrsRequiresTrace(t *testing.T) {
	code, out := runCLI(t, append(tiny, "-traceaddrs", "0")...)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (usage error)", code)
	}
	if out != "" {
		t.Fatalf("simulation ran despite the usage error:\n%s", out)
	}
}
