package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFiles lists committed entries in the store's root.
func entryFiles(t *testing.T, s *Store) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(s.Root(), "*"+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func quarantined(t *testing.T, s *Store) []string {
	t.Helper()
	ents, err := os.ReadDir(s.QuarantineDir())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := "v1234|mp3d|x0.05|p4"
	payload := []byte(`{"ExecTime": 12345, "Workload": "mp3d"}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutReplacesEntry(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "new" {
		t.Fatalf("Get = %q, %v; want the replacement", got, ok)
	}
	if n := len(entryFiles(t, s)); n != 1 {
		t.Fatalf("%d entry files after replace, want 1", n)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	got, ok := s2.Get("key")
	if !ok || string(got) != "payload" {
		t.Fatalf("entry lost across reopen: %q, %v", got, ok)
	}
}

// TestCorruptEntryQuarantinedAndHealed is the central robustness contract:
// any byte-level damage to an entry yields a quarantine + miss, never a
// crash or partial data, and a subsequent Put heals the slot.
func TestCorruptEntryQuarantinedAndHealed(t *testing.T) {
	payload := []byte(strings.Repeat(`{"m": 7}`, 20))
	corruptions := []struct {
		name string
		mod  func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"flipped-payload-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-3] ^= 0xff
			return c
		}},
		{"garbage", func([]byte) []byte { return []byte("not a store entry at all") }},
		{"empty", func([]byte) []byte { return nil }},
		{"wrong-magic", func(b []byte) []byte {
			return append([]byte("xxsimstore9"), b[len(magic):]...)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			if err := s.Put("key", payload); err != nil {
				t.Fatal(err)
			}
			p := entryFiles(t, s)[0]
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, tc.mod(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("key"); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			if q := quarantined(t, s); len(q) != 1 {
				t.Fatalf("quarantine = %v, want exactly the damaged entry", q)
			}
			if n := len(entryFiles(t, s)); n != 0 {
				t.Fatalf("%d entry files remain after quarantine", n)
			}
			if st := s.Stats(); st.Quarantined != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v", st)
			}
			// Heal: re-Put and the slot serves again.
			if err := s.Put("key", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("key"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed slot Get = %q, %v", got, ok)
			}
		})
	}
}

// TestKeyMismatchIsMiss guards the content addressing: an entry whose
// embedded key disagrees with the lookup key (a hash collision, or a file
// copied between slots) must miss, not serve the wrong run's result.
func TestKeyMismatchIsMiss(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put("key-a", []byte("result-a")); err != nil {
		t.Fatal(err)
	}
	// Copy a's entry file into b's slot.
	b, err := os.ReadFile(s.path("key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("key-b"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("key-b"); ok {
		t.Fatalf("mismatched entry served: %q", got)
	}
	if q := quarantined(t, s); len(q) != 1 {
		t.Fatalf("quarantine = %v", q)
	}
}

// TestOpenSweepsOrphanedTempFiles simulates a kill -9 mid-write: the temp
// file a crashed Put left behind must be quarantined on reopen and never
// be visible as an entry.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("done", []byte("complete")); err != nil {
		t.Fatal(err)
	}
	// A partial write: header claims more payload than was flushed.
	orphan := filepath.Join(dir, "tmp-123456")
	if err := os.WriteFile(orphan, []byte(magic+" deadbeef 9999 some-key\n{\"Exec"), 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived reopen")
	}
	if q := quarantined(t, s2); len(q) != 1 {
		t.Fatalf("quarantine after reopen = %v, want the orphan", q)
	}
	if got, ok := s2.Get("done"); !ok || string(got) != "complete" {
		t.Fatalf("committed entry lost in the sweep: %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQuarantineKeepsDistinctArtifacts: repeated corruption of the same
// slot must not overwrite earlier quarantined files.
func TestQuarantineKeepsDistinctArtifacts(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for i := 0; i < 3; i++ {
		if err := s.Put("key", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		p := entryFiles(t, s)[0]
		if err := os.WriteFile(p, []byte(fmt.Sprintf("garbage %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("key"); ok {
			t.Fatal("corrupt entry hit")
		}
	}
	if q := quarantined(t, s); len(q) != 3 {
		t.Fatalf("quarantine = %v, want 3 distinct artifacts", q)
	}
}

func TestDropQuarantinesEntry(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put("key", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	s.Drop("key")
	if _, ok := s.Get("key"); ok {
		t.Fatal("dropped entry still served")
	}
	if q := quarantined(t, s); len(q) != 1 {
		t.Fatalf("quarantine = %v", q)
	}
	s.Drop("key") // dropping a missing entry is a no-op
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutRejectsNewlineKey(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put("bad\nkey", []byte("x")); err == nil {
		t.Fatal("newline key accepted: the header format would be ambiguous")
	}
}

// TestConcurrentAccess hammers the store from many goroutines (run under
// -race by verify.sh): distinct keys in parallel plus repeated same-key
// writes must stay consistent.
func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i)
				want := []byte(fmt.Sprintf("payload-%d-%d", g, i))
				if err := s.Put(key, want); err != nil {
					t.Errorf("Put %s: %v", key, err)
					return
				}
				if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
					t.Errorf("Get %s = %q, %v", key, got, ok)
					return
				}
				// Contended slot: everyone rewrites and reads "shared".
				if err := s.Put("shared", []byte("shared-payload")); err != nil {
					t.Errorf("Put shared: %v", err)
					return
				}
				if got, ok := s.Get("shared"); !ok || string(got) != "shared-payload" {
					t.Errorf("Get shared = %q, %v", got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Quarantined != 0 {
		t.Fatalf("concurrent access quarantined entries: %+v", st)
	}
}
