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

// TestProfileFlagsRoundTrip runs a tiny simulation with both profiling
// flags and checks the CLI leaves parseable pprof files behind — the
// user-facing contract of -cpuprofile/-memprofile.
func TestProfileFlagsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, out := runCLI(t, "ccsim",
		"-workload", "mp3d", "-scale", "0.02", "-procs", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
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
}

// TestTraceFile checks the buffered -trace file: it ends with the run's
// last protocol event, and an unwritable destination fails the command
// instead of silently losing the trace.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	args := []string{"ccsim", "-workload", "mp3d", "-scale", "0.02", "-procs", "2", "-trace", path}
	if code, _ := runCLI(t, args...); code != 0 {
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
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a write error")
	}
	args[len(args)-1] = "/dev/full"
	if code, _ := runCLI(t, args...); code != 1 {
		t.Fatalf("trace to /dev/full: exit code %d, want 1", code)
	}
}
