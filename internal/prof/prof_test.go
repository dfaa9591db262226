package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartNoop(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // must be safe with both profiles disabled
		t.Fatal(err)
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	n := 0
	for i := 0; i < 1<<20; i++ {
		n += i
	}
	_ = n
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
		if err := ValidateProfile(p); err != nil {
			t.Errorf("round-trip produced an unparseable profile: %v", err)
		}
	}
}

// TestValidateProfileRejects checks the validator fails on missing and
// non-gzip files rather than rubber-stamping anything on disk.
func TestValidateProfileRejects(t *testing.T) {
	dir := t.TempDir()
	if err := ValidateProfile(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing file validated")
	}
	plain := filepath.Join(dir, "plain")
	if err := os.WriteFile(plain, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateProfile(plain); err == nil {
		t.Error("non-gzip file validated")
	}
}

func TestStartBadPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "x"), ""); err == nil {
		t.Fatal("expected error for uncreatable profile path")
	}
}
