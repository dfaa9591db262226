package store

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLatenciesTrackOps checks that each store operation lands in its own
// latency total: a Put counts a write, a hit counts a read and a validate,
// and a miss counts nothing.
func TestLatenciesTrackOps(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); !ok {
		t.Fatal("expected hit")
	}
	lat := s.Latencies()
	if len(lat) != 3 {
		t.Fatalf("Latencies returned %d ops, want 3", len(lat))
	}
	byOp := map[string]OpLatency{}
	for _, l := range lat {
		byOp[l.Op] = l
	}
	for _, op := range []string{"read", "validate", "write"} {
		l, ok := byOp[op]
		if !ok {
			t.Fatalf("missing op %q in %v", op, lat)
		}
		if l.Count != 1 {
			t.Errorf("%s count = %d, want 1", op, l.Count)
		}
	}
	// A miss reads nothing: counts must not move.
	if _, ok := s.Get("absent"); ok {
		t.Fatal("unexpected hit")
	}
	for _, l := range s.Latencies() {
		if l.Count != 1 {
			t.Errorf("after miss, %s count = %d, want 1", l.Op, l.Count)
		}
	}
}

// TestGetEntryQuarantineDisposition checks the three GetEntry outcomes:
// clean hit, clean miss, and corrupt-entry quarantine — the signal the
// scheduler logs with a run_id.
func TestGetEntryQuarantineDisposition(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok, q := s.GetEntry("k"); !ok || q {
		t.Fatalf("clean entry: ok=%v quarantined=%v, want true,false", ok, q)
	}
	if _, ok, q := s.GetEntry("never-stored"); ok || q {
		t.Fatalf("miss: ok=%v quarantined=%v, want false,false", ok, q)
	}
	// Truncate the committed entry (the kill -9 shape) and look it up again.
	matches, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob: %v %v", matches, err)
	}
	if err := os.Truncate(matches[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, ok, q := s.GetEntry("k"); ok || !q {
		t.Fatalf("corrupt entry: ok=%v quarantined=%v, want false,true", ok, q)
	}
	if got := s.Stats().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
}
