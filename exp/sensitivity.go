package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"ccsim"
)

// SensRow compares a protocol's execution time under a constrained
// configuration against the paper's default, both relative to the
// constrained BASIC.
type SensRow struct {
	Workload string
	Protocol string
	Default  float64 // relative exec time, default configuration
	Limited  float64 // relative exec time, constrained configuration
}

// SensBuffers reproduces §5.4's buffer study: FLWB and SLWB shrunk to 4
// entries each under RC. The paper finds only BASIC and P suffer (pending
// writes); CW, M and their combinations are unaffected.
func SensBuffers(o Options) ([]SensRow, error) {
	return sensitivity(o, func(cfg ccsim.Config) ccsim.Config {
		cfg.FLWBEntries = 4
		cfg.SLWBEntries = 4
		return cfg
	})
}

// SensCache reproduces §5.4's cache study: a finite 16-KB direct-mapped SLC
// (512 blocks of 32 B). The paper finds the gains persist and P gets even
// better (replacement misses).
func SensCache(o Options) ([]SensRow, error) {
	return sensitivity(o, func(cfg ccsim.Config) ccsim.Config {
		cfg.SLCBlocks = 512
		return cfg
	})
}

func sensitivity(o Options, constrain func(ccsim.Config) ccsim.Config) ([]SensRow, error) {
	combos := Combos()
	// Each combination runs in the default configuration, then the
	// constrained one. The default half of every pair is Figure 2's grid;
	// under a shared scheduler both sensitivity studies reuse those runs.
	g := grid(o, cross(combos, []bool{false, true}), func(cfg ccsim.Config, v pair[Combo, bool]) ccsim.Config {
		cfg.Extensions = v.a.Ext
		if v.b {
			return constrain(cfg)
		}
		return cfg
	})
	var rows []SensRow
	for i, wl := range ccsim.Workloads() {
		defBase, limBase := g[i][0].Cell(), g[i][1].Cell()
		for j, combo := range combos {
			c := g[i][2*j:]
			rows = append(rows, SensRow{
				Workload: wl,
				Protocol: combo.Name,
				Default:  relCell(c[0].Cell(), defBase),
				Limited:  relCell(c[1].Cell(), limBase),
			})
		}
	}
	return rows, nil
}

// FprintSens renders a sensitivity comparison.
func FprintSens(w io.Writer, rows []SensRow, limitedLabel string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tprotocol\tdefault\t%s\n", limitedLabel)
	last := ""
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", rowName(&last, r.Workload), r.Protocol,
			cellf("%.3f", r.Default), cellf("%.3f", r.Limited))
	}
	tw.Flush()
}

// FprintTable1 renders the paper's Table 1 hardware-cost inventory.
func FprintTable1(w io.Writer, procs int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\tSLC state bits/line\tadditional mechanisms\tSLWB features\tmemory bits/line")
	for _, row := range ccsim.CostTable(procs) {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n",
			row.Protocol, row.SLCStateBitsPerLine, row.ExtraCacheMechanisms,
			row.SLWBNote, row.MemoryBitsPerLine)
	}
	tw.Flush()
}
