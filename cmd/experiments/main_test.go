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
