package ccsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"ccsim"
)

// TestAddressShiftInvariance runs a kernel's operation streams with every
// address moved far up the 64-bit space and requires the result to be
// identical to the unshifted run. The shifts are multiples of 16 pages and
// of every cache's set count, so each block keeps its home node, its FLC
// and SLC sets and its write-cache frame; only the block numbers change.
// Per-block protocol state is indexed by block number in sparse page
// tables, and no built-in kernel reaches these addresses, so this is what
// covers them. Every run also attaches a fresh live checker and sharing
// analyzer, whose shadow state lives in block tables of its own: the
// checker asserts at those far block numbers, and Result.Sharing is part
// of the comparison. A one-page shift moves every block to another home
// and must change the result, which proves the comparison can fail.
func TestAddressShiftInvariance(t *testing.T) {
	const procs = 16
	ops, err := ccsim.WorkloadOps("mp3d", procs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg ccsim.Config, shift uint64) *ccsim.Result {
		t.Helper()
		streams := make([]ccsim.Stream, len(ops))
		for p, po := range ops {
			moved := make([]ccsim.Op, len(po))
			for i, op := range po {
				switch op.Kind {
				case ccsim.Read, ccsim.Write, ccsim.Acquire, ccsim.Release:
					op.Addr += shift
				}
				moved[i] = op
			}
			streams[p] = ccsim.Ops(moved...)
		}
		cfg.Check = ccsim.NewChecker()
		cfg.Sharing = ccsim.NewSharingAnalytics()
		res, err := ccsim.RunStreams(cfg, streams)
		if err != nil {
			t.Fatalf("shift %#x: %v", shift, err)
		}
		if cfg.Check.Checks() == 0 || res.Sharing == nil {
			t.Fatalf("shift %#x: checker made %d checks, sharing report %v", shift, cfg.Check.Checks(), res.Sharing)
		}
		return res
	}
	protocols := []struct {
		name string
		ext  ccsim.Ext
		sc   bool
	}{
		{"BASIC", ccsim.Ext{}, false},
		{"P+CW", ccsim.Ext{P: true, CW: true}, false},
		{"P+M-SC", ccsim.Ext{P: true, M: true}, true},
	}
	for _, pr := range protocols {
		for _, mesh := range []bool{false, true} {
			cfg := ccsim.DefaultConfig()
			cfg.Procs = procs
			cfg.Extensions, cfg.SC = pr.ext, pr.sc
			cfg.VerifyData = true
			name := pr.name + "/uniform"
			if mesh {
				cfg.Net, cfg.LinkBits, cfg.SLCBlocks = ccsim.Mesh, 16, 256
				name = pr.name + "/mesh-slc256"
			}
			t.Run(name, func(t *testing.T) {
				base := run(cfg, 0)
				for _, shift := range []uint64{1 << 40, 1 << 58} {
					if got := run(cfg, shift); !reflect.DeepEqual(got, base) {
						t.Errorf("shift %#x changed the result:\n got %s\nwant %s",
							shift, summary(got), summary(base))
					}
				}
				if got := run(cfg, 4096); reflect.DeepEqual(got, base) {
					t.Errorf("a one-page shift left the result unchanged: %s", summary(got))
				}
			})
		}
	}
}

func summary(r *ccsim.Result) string {
	return fmt.Sprintf("exec=%d misses=%d/%d/%d traffic=%d",
		r.ExecTime, r.ColdMisses, r.CoherenceMisses, r.ReplacementMisses, r.TrafficBytes)
}
