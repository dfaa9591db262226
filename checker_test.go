package ccsim_test

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"ccsim"
	"ccsim/internal/litmus"
)

// mutationConfig is the small deterministic machine the mutation-smoke
// tests run: one or two processors, BASIC under RC, a four-block SLC so a
// conflicting write forces a dirty writeback.
func mutationConfig(procs int) ccsim.Config {
	cfg := ccsim.DefaultConfig()
	cfg.Procs = procs
	cfg.SLCBlocks = 4
	cfg.Workload = "mut"
	cfg.MaxEvents = 1_000_000
	return cfg
}

// wbDropStreams builds the writeback-mutation program on one processor:
// write block 0, then touch a conflicting block so the dirty copy of
// block 0 is written back (with the injected mutation, the merge drops the
// written word), then read block 0 back and observe the stale word.
func wbDropStreams() []ccsim.Stream {
	return []ccsim.Stream{ccsim.Ops(
		ccsim.Op{Kind: ccsim.StatsOn},
		ccsim.Op{Kind: ccsim.Write, Addr: 0},
		ccsim.Op{Kind: ccsim.Read, Addr: 0},
		ccsim.Op{Kind: ccsim.Write, Addr: 128}, // same direct-mapped set as block 0
		ccsim.Op{Kind: ccsim.Read, Addr: 128},
		ccsim.Op{Kind: ccsim.Read, Addr: 0},
	)}
}

// TestLiveCheckerCatchesWritebackMutation injects the "wb-drop-word"
// protocol mutation — a writeback merge that silently loses its lowest
// written word — and pins that the live checker fails the run with a
// structured SimFault at the offending event, naming the message kind and
// the block.
func TestLiveCheckerCatchesWritebackMutation(t *testing.T) {
	cfg := mutationConfig(1)
	cfg.FaultInject = "wb-drop-word@mut/BASIC"
	cfg.Check = ccsim.NewChecker()
	_, err := ccsim.RunStreams(cfg, wbDropStreams())
	if err == nil {
		t.Fatalf("mutated run passed under the live checker")
	}
	f, ok := ccsim.AsFault(err)
	if !ok {
		t.Fatalf("error is not a SimFault: %v", err)
	}
	if f.Kind != ccsim.FaultInvariant {
		t.Errorf("fault kind = %q, want %q", f.Kind, ccsim.FaultInvariant)
	}
	if !f.HasBlock || f.Block != 0 {
		t.Errorf("fault names block %d (has=%v), want block 0", f.Block, f.HasBlock)
	}
	if f.Component != "cache 0" || f.MsgKind != "ReadReply" {
		t.Errorf("fault attributed to %q handling %q, want cache 0 handling ReadReply", f.Component, f.MsgKind)
	}
	if want := "node 0 read block 0 word 0 version 0 after seeing 1"; f.Message != want {
		t.Errorf("fault message = %q, want %q", f.Message, want)
	}
}

// TestWritebackMutationInvisibleAtEndOfRun is the other half of the smoke
// test: the same mutated run without the live checker completes "cleanly"
// — the lost word leaves the directory, presence vectors and cache states
// all structurally consistent, so the end-of-run invariant sweep has
// nothing to object to. Only the transition-time value oracle sees the
// data loss.
func TestWritebackMutationInvisibleAtEndOfRun(t *testing.T) {
	cfg := mutationConfig(1)
	cfg.FaultInject = "wb-drop-word@mut/BASIC"
	if _, err := ccsim.RunStreams(cfg, wbDropStreams()); err != nil {
		t.Fatalf("expected the mutated run to pass the end-of-run checker, got: %v", err)
	}
}

func skipSharerStreams() []ccsim.Stream {
	return []ccsim.Stream{
		ccsim.Ops(ccsim.Op{Kind: ccsim.StatsOn}),
		ccsim.Ops(
			ccsim.Op{Kind: ccsim.StatsOn},
			ccsim.Op{Kind: ccsim.Read, Addr: 0},
		),
	}
}

// TestLiveCheckerCatchesSkipSharerMutation injects "skip-sharer" — the home
// omits a read requester from the presence vector — and pins that the live
// checker attributes the violation to the requester's install event, not
// to some later consequence.
func TestLiveCheckerCatchesSkipSharerMutation(t *testing.T) {
	cfg := mutationConfig(2)
	cfg.FaultInject = "skip-sharer@mut/BASIC"
	cfg.Check = ccsim.NewChecker()
	_, err := ccsim.RunStreams(cfg, skipSharerStreams())
	f, ok := ccsim.AsFault(err)
	if !ok {
		t.Fatalf("want a SimFault, got: %v", err)
	}
	if f.Kind != ccsim.FaultInvariant {
		t.Errorf("fault kind = %q, want %q", f.Kind, ccsim.FaultInvariant)
	}
	if !f.HasBlock || f.Block != 0 {
		t.Errorf("fault names block %d (has=%v), want block 0", f.Block, f.HasBlock)
	}
	if f.Component != "cache 1" || f.MsgKind != "ReadReply" {
		t.Errorf("fault attributed to %q handling %q, want the installing cache 1 handling ReadReply", f.Component, f.MsgKind)
	}
	if want := "install: node 1 holds block 0 outside the presence vector (CLEAN presence 0x0)"; f.Message != want {
		t.Errorf("fault message = %q, want %q", f.Message, want)
	}
}

// TestSkipSharerEndOfRunLosesAttribution contrasts the live checker with
// the end-of-run sweep on the same injected bug: the stale presence vector
// does survive to quiescence, so the final check fails the run — but as a
// plain error with no event context, while the live checker (above) named
// the message and component at the moment the bad install happened.
func TestSkipSharerEndOfRunLosesAttribution(t *testing.T) {
	cfg := mutationConfig(2)
	cfg.FaultInject = "skip-sharer@mut/BASIC"
	_, err := ccsim.RunStreams(cfg, skipSharerStreams())
	if err == nil {
		t.Fatalf("end-of-run invariant sweep missed the stale presence vector")
	}
	if _, ok := ccsim.AsFault(err); ok {
		t.Fatalf("end-of-run failure unexpectedly carries event attribution: %v", err)
	}
	if !strings.Contains(err.Error(), "presence") {
		t.Errorf("end-of-run error %q does not mention the presence vector", err)
	}
}

// TestMutationRequiresMatchingIdentity pins the FaultInject gating: a
// mutation armed for a different workload/protocol identity must not fire.
func TestMutationRequiresMatchingIdentity(t *testing.T) {
	cfg := mutationConfig(1)
	cfg.FaultInject = "wb-drop-word@other/BASIC"
	cfg.Check = ccsim.NewChecker()
	if _, err := ccsim.RunStreams(cfg, wbDropStreams()); err != nil {
		t.Fatalf("mutation fired for a non-matching identity: %v", err)
	}
}

// TestLitmusCorpus runs the deterministic litmus corpus checked into
// testdata/litmus/corpus.txt: one line per (shape, protocol, consistency
// model, network) cell, every run under the live checker.
func TestLitmusCorpus(t *testing.T) {
	f, err := os.Open("testdata/litmus/corpus.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shapes := litmus.Shapes()
	sc := bufio.NewScanner(f)
	line := 0
	ran := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			t.Fatalf("corpus.txt:%d: want 4 fields, got %q", line, text)
		}
		mk, ok := shapes[fields[0]]
		if !ok {
			t.Fatalf("corpus.txt:%d: unknown shape %q", line, fields[0])
		}
		var ext ccsim.Ext
		if fields[1] != "BASIC" {
			for _, part := range strings.Split(fields[1], "+") {
				switch part {
				case "P":
					ext.P = true
				case "M":
					ext.M = true
				case "CW":
					ext.CW = true
				default:
					t.Fatalf("corpus.txt:%d: unknown extension %q", line, part)
				}
			}
		}
		cell := litmus.Cell{Ext: ext, SC: fields[2] == "sc"}
		if fields[3] == "mesh" {
			cell.Net = ccsim.Mesh
		}
		if err := litmus.Run(mk(), cell); err != nil {
			t.Errorf("corpus.txt:%d: %v", line, err)
		}
		ran++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ran < 48 {
		t.Fatalf("corpus ran only %d cells, want >= 48", ran)
	}
}
