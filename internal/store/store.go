// Package store is the sweep pipeline's crash-safe on-disk result cache:
// a content-addressed map from a scheduler cache key (the canonical
// configuration fingerprint, schema-tagged) to an opaque payload — in
// practice one run's Result JSON. It is the persistence layer behind
// `experiments -cache-dir`: a sweep killed at any instant, including
// mid-write, resumes by re-reading completed entries and re-running only
// what is missing, with byte-identical output.
//
// Durability model:
//
//   - Writes are atomic: each entry lands in a temp file in the store
//     directory, is fsynced, then renamed over its final name. A crash at
//     any point leaves either the old entry, the new entry, or an orphaned
//     temp file — never a half-visible entry.
//   - Every entry carries its own checksum and key. A read that finds a
//     truncated, corrupted or mismatched entry quarantines the file into
//     the `quarantine/` sidecar directory and reports a miss, so the run
//     re-executes and rewrites a good entry; corruption is never a crash
//     and never a silently-wrong result.
//   - Open sweeps orphaned temp files (a kill -9 mid-write) into the
//     quarantine directory, so partial writes are visible for post-mortems
//     but can never be mistaken for entries.
//
// The store is safe for concurrent use by multiple goroutines, and safe
// across processes in the sense that concurrent writers of the same key
// converge on one complete entry (rename is atomic) and readers only ever
// observe complete entries.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// magic is the entry format version; bump it if the on-disk layout
// changes, so old entries quarantine instead of misparse.
const magic = "ccsimstore1"

// entryExt is the extension of committed entries.
const entryExt = ".res"

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits        uint64 // Get calls served by a valid on-disk entry
	Misses      uint64 // Get calls finding no (valid) entry
	Writes      uint64 // entries committed by Put
	Quarantined uint64 // corrupt/truncated files moved to the sidecar dir
}

// Latency op indexes into Store.lat; Latencies names them.
const (
	opRead     = iota // os.ReadFile of an existing entry
	opValidate        // header/checksum/key validation of the read bytes
	opWrite           // full Put commit: temp write, fsync, rename
	numOps
)

// OpLatency is one operation's count and total time, in seconds.
type OpLatency struct {
	Op         string // "read", "validate", or "write"
	Count      uint64
	SumSeconds float64
}

// Store is one on-disk result cache rooted at a directory. Create with
// Open; the zero value is not usable.
type Store struct {
	root string

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	quarantined atomic.Uint64

	// latN and latSum count each operation and total its time: disk
	// reads, entry validation, and full Put commits. latMu guards them —
	// these are cold paths (one read or write per run), so a mutex is fine.
	latMu  sync.Mutex
	latN   [numOps]uint64
	latSum [numOps]time.Duration
}

// Open creates (if needed) and opens the store rooted at dir, sweeping any
// temp files orphaned by a crash mid-write into the quarantine directory.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir}
	if err := os.MkdirAll(s.QuarantineDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// A kill -9 between CreateTemp and rename leaves tmp-* partials; they
	// were never visible as entries, but quarantine them anyway so the
	// interrupted write is inspectable and the store dir holds only
	// committed entries.
	orphans, err := filepath.Glob(filepath.Join(dir, "tmp-*"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, p := range orphans {
		s.quarantine(p)
	}
	return s, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// QuarantineDir returns the sidecar directory corrupt entries are moved
// into.
func (s *Store) QuarantineDir() string { return filepath.Join(s.root, "quarantine") }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// path is the content-addressed file name for key: entries are named by
// the key's hash, so arbitrary fingerprint strings map to safe, fixed-
// length file names.
func (s *Store) path(key string) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(s.root, hex.EncodeToString(h[:20])+entryExt)
}

// observe records one operation's duration.
func (s *Store) observe(op int, d time.Duration) {
	s.latMu.Lock()
	s.latN[op]++
	s.latSum[op] += d
	s.latMu.Unlock()
}

// Latencies snapshots each operation's count and total time, in a fixed
// op order (read, validate, write). Operations that never ran report
// Count 0.
func (s *Store) Latencies() []OpLatency {
	names := [numOps]string{opRead: "read", opValidate: "validate", opWrite: "write"}
	out := make([]OpLatency, numOps)
	s.latMu.Lock()
	defer s.latMu.Unlock()
	for i := range out {
		out[i] = OpLatency{Op: names[i], Count: s.latN[i], SumSeconds: s.latSum[i].Seconds()}
	}
	return out
}

// Get returns the payload stored under key, or ok=false on a miss. A file
// that exists but fails validation — truncated payload, checksum or key
// mismatch, unparseable header — is quarantined and reported as a miss,
// so callers re-run and re-Put; Get never returns partial data.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	payload, ok, _ = s.GetEntry(key)
	return payload, ok
}

// GetEntry is Get plus the disposition: quarantined reports whether this
// lookup found an entry file but had to quarantine it (corrupt, truncated,
// or unreadable), so callers holding run context can log the event with a
// stable identifier instead of inferring it from counter deltas.
func (s *Store) GetEntry(key string) (payload []byte, ok, quarantined bool) {
	p := s.path(key)
	t0 := time.Now()
	b, err := os.ReadFile(p)
	if err != nil {
		if !os.IsNotExist(err) {
			// Unreadable entry (permissions, I/O error): get it out of the
			// lookup path so the sweep proceeds by re-running.
			s.quarantine(p)
			quarantined = true
		}
		s.misses.Add(1)
		return nil, false, quarantined
	}
	s.observe(opRead, time.Since(t0))
	t1 := time.Now()
	payload, err = decode(b, key)
	s.observe(opValidate, time.Since(t1))
	if err != nil {
		s.quarantine(p)
		s.misses.Add(1)
		return nil, false, true
	}
	s.hits.Add(1)
	return payload, true, false
}

// Put commits payload under key atomically: temp file, fsync, rename. An
// existing entry for key is replaced; a crash at any instant leaves the
// old or the new entry intact, never a torn one.
func (s *Store) Put(key string, payload []byte) error {
	if strings.Contains(key, "\n") {
		return fmt.Errorf("store: key contains a newline: %q", key)
	}
	t0 := time.Now()
	f, err := os.CreateTemp(s.root, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d %s\n", magic, hex.EncodeToString(sum[:]), len(payload), key)
	if _, err := f.WriteString(header); err != nil {
		return fail(err)
	}
	if _, err := f.Write(payload); err != nil {
		return fail(err)
	}
	// fsync before rename: the entry must be durable before it becomes
	// visible, or a crash could expose a name pointing at unwritten blocks.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	s.observe(opWrite, time.Since(t0))
	s.writes.Add(1)
	return nil
}

// Drop quarantines the entry stored under key, if any — the caller-level
// eviction for entries whose bytes are intact but whose content turned out
// to be unusable (e.g. a payload that no longer deserializes).
func (s *Store) Drop(key string) {
	p := s.path(key)
	if _, err := os.Stat(p); err == nil {
		s.quarantine(p)
	}
}

// quarantine moves p into the sidecar directory (removing it outright if
// the move fails) so it can never be read as an entry again.
func (s *Store) quarantine(p string) {
	dest := filepath.Join(s.QuarantineDir(), filepath.Base(p)+".corrupt")
	// Keep distinct artifacts distinct: suffix if a prior quarantine of the
	// same entry name is already there.
	for i := 1; ; i++ {
		if _, err := os.Stat(dest); os.IsNotExist(err) {
			break
		}
		dest = filepath.Join(s.QuarantineDir(), filepath.Base(p)+".corrupt."+strconv.Itoa(i))
	}
	if err := os.Rename(p, dest); err != nil {
		os.Remove(p)
	}
	s.quarantined.Add(1)
}

// decode validates one entry file against its expected key and returns the
// payload. Any deviation — bad magic, short header, length or checksum
// mismatch, key mismatch — is an error; the caller quarantines.
func decode(b []byte, key string) ([]byte, error) {
	header, payload, found := bytes.Cut(b, []byte{'\n'})
	if !found {
		return nil, fmt.Errorf("truncated entry: no header line")
	}
	fields := strings.SplitN(string(header), " ", 4)
	if len(fields) != 4 || fields[0] != magic {
		return nil, fmt.Errorf("bad entry header")
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, fmt.Errorf("bad entry length: %w", err)
	}
	if fields[3] != key {
		return nil, fmt.Errorf("entry key mismatch")
	}
	if len(payload) != n {
		return nil, fmt.Errorf("truncated entry: %d of %d payload bytes", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, fmt.Errorf("entry checksum mismatch")
	}
	return payload, nil
}
