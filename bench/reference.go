package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ccsim"
)

// refPath is where -update writes the reference, relative to the bench
// directory it must be run from.
const refPath = "testdata/reference.json"

//go:embed testdata/reference.json
var pinnedReference []byte

// pinned is the part of a run's simulated output the reference fixes. The
// simulator is deterministic, so any difference is a behaviour change.
type pinned struct {
	ExecTime          int64
	TotalPclocks      int64
	Reads             uint64
	Writes            uint64
	ColdMisses        uint64
	CoherenceMisses   uint64
	ReplacementMisses uint64
	TrafficBytes      uint64
	TrafficMsgs       uint64
	Dispatched        uint64
}

func pin(r *ccsim.Result) pinned {
	return pinned{
		ExecTime: r.ExecTime, TotalPclocks: r.TotalPclocks,
		Reads: r.Reads, Writes: r.Writes,
		ColdMisses: r.ColdMisses, CoherenceMisses: r.CoherenceMisses, ReplacementMisses: r.ReplacementMisses,
		TrafficBytes: r.TrafficBytes, TrafficMsgs: r.TrafficMsgs,
		Dispatched: r.Queue.Dispatched,
	}
}

// reference holds the seed-0 output of every run and the sha256 of the
// sweep's rendered tables, keyed by workload and run. When updating, checks
// record what they see instead of comparing.
type reference struct {
	Runs     map[string]pinned `json:"runs"`
	Tables   map[string]string `json:"tables_sha256"`
	updating bool
}

func loadReference(b []byte) (*reference, error) {
	ref := &reference{}
	if err := json.Unmarshal(b, ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return ref, nil
}

func newRecorder() *reference {
	return &reference{Runs: map[string]pinned{}, Tables: map[string]string{}, updating: true}
}

// checkRun reports whether a run succeeded and matches its pinned output.
func (ref *reference) checkRun(key string, r *ccsim.Result, err error) bool {
	if err != nil || r == nil {
		return false
	}
	if ref.updating {
		ref.Runs[key] = pin(r)
		return true
	}
	want, ok := ref.Runs[key]
	return ok && want == pin(r)
}

// checkTables reports whether the sweep's tables hash to the pinned value.
func (ref *reference) checkTables(key, sum string) bool {
	if ref.updating {
		ref.Tables[key] = sum
		return true
	}
	want, ok := ref.Tables[key]
	return ok && want == sum
}

func (ref *reference) write(path string) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Dir(path)); err != nil {
		return fmt.Errorf("reference: run -update from the bench directory: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
