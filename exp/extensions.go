package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"ccsim"
)

// The studies in this file go beyond the paper's evaluation: they exercise
// design axes the paper's framework invites but does not sweep — directory
// organization, cache associativity, and machine size. DESIGN.md lists them
// as extension experiments.

// DirRow compares directory organizations for one workload under the best
// RC combination (P+CW) and under BASIC.
type DirRow struct {
	Workload   string
	Pointers   int // 0 = full map
	Basic      float64
	PCW        float64
	Overflows  uint64
	Broadcasts uint64
	// Faulted marks a row whose BASIC run produced no Result, so the
	// overflow and broadcast counts are meaningless (the relative columns
	// carry NaN on their own).
	Faulted bool
}

// DirPointerSweep lists the directory organizations DirectoryStudy sweeps:
// the paper's full map plus Dir4B, Dir2B and Dir1B limited-pointer
// directories.
var DirPointerSweep = []int{0, 4, 2, 1}

// DirectoryStudy sweeps limited-pointer directories: execution time
// relative to the full-map BASIC of the same workload, plus overflow and
// broadcast counts.
func DirectoryStudy(o Options) ([]DirRow, error) {
	exts := []ccsim.Ext{{}, {P: true, CW: true}}
	g := grid(o, cross(DirPointerSweep, exts), func(cfg ccsim.Config, v pair[int, ccsim.Ext]) ccsim.Config {
		cfg.Extensions = v.b
		cfg.DirPointers = v.a
		return cfg
	})
	var rows []DirRow
	for i, wl := range ccsim.Workloads() {
		fullBasic := g[i][0].Cell()
		for j, ptrs := range DirPointerSweep {
			c := g[i][j*len(exts):]
			basic, pcw := c[0].Cell(), c[1].Cell()
			row := DirRow{
				Workload: wl,
				Pointers: ptrs,
				Basic:    relCell(basic, fullBasic),
				PCW:      relCell(pcw, fullBasic),
				Faulted:  basic == nil,
			}
			if basic != nil {
				row.Overflows = basic.PointerOverflows
				row.Broadcasts = basic.BroadcastInvs
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FprintDirectory renders the directory study.
func FprintDirectory(w io.Writer, rows []DirRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tdirectory\tBASIC\tP+CW\toverflows\tbroadcasts")
	last := ""
	for _, r := range rows {
		dir := "full map"
		if r.Pointers > 0 {
			dir = fmt.Sprintf("Dir%dB", r.Pointers)
		}
		counts := fmt.Sprintf("%d\t%d", r.Overflows, r.Broadcasts)
		if r.Faulted {
			counts = "FAULT\tFAULT"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			rowName(&last, r.Workload), dir, cellf("%.3f", r.Basic), cellf("%.3f", r.PCW), counts)
	}
	tw.Flush()
}

// AssocRow compares SLC associativities at a fixed 16-KB capacity.
type AssocRow struct {
	Workload string
	Ways     int
	Basic    float64 // relative to 1-way BASIC
	P        float64
}

// AssocWays lists the associativities AssociativityStudy sweeps.
var AssocWays = []int{1, 2, 4}

// AssociativityStudy sweeps the 16-KB SLC's associativity: the paper uses
// direct-mapped caches; associativity absorbs the conflict misses that
// prefetching otherwise hides.
func AssociativityStudy(o Options) ([]AssocRow, error) {
	exts := []ccsim.Ext{{}, {P: true}}
	g := grid(o, cross(AssocWays, exts), func(cfg ccsim.Config, v pair[int, ccsim.Ext]) ccsim.Config {
		cfg.Extensions = v.b
		cfg.SLCBlocks = 512 // 16 KB
		cfg.SLCWays = v.a
		return cfg
	})
	var rows []AssocRow
	for i, wl := range ccsim.Workloads() {
		base := g[i][0].Cell()
		for j, ways := range AssocWays {
			c := g[i][j*len(exts):]
			rows = append(rows, AssocRow{
				Workload: wl,
				Ways:     ways,
				Basic:    relCell(c[0].Cell(), base),
				P:        relCell(c[1].Cell(), base),
			})
		}
	}
	return rows, nil
}

// FprintAssoc renders the associativity study.
func FprintAssoc(w io.Writer, rows []AssocRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tways\tBASIC\tP")
	last := ""
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", rowName(&last, r.Workload), r.Ways,
			cellf("%.3f", r.Basic), cellf("%.3f", r.P))
	}
	tw.Flush()
}

// ScaleRow reports one workload's execution time at a machine size, for
// BASIC and P+CW, normalized to the 4-processor BASIC run of the same
// workload (smaller is better; perfect scaling would quarter per step).
type ScaleRow struct {
	Workload string
	Procs    int
	Basic    float64
	PCW      float64
}

// ScaleProcs lists the machine sizes ScalingStudy sweeps.
var ScaleProcs = []int{4, 8, 16, 32}

// ScalingStudy sweeps the processor count at a fixed problem size (strong
// scaling). The combined extensions should keep their advantage as the
// machine grows — communication grows with sharing, which is exactly what
// P and CW attack.
func ScalingStudy(o Options) ([]ScaleRow, error) {
	exts := []ccsim.Ext{{}, {P: true, CW: true}}
	g := grid(o, cross(ScaleProcs, exts), func(cfg ccsim.Config, v pair[int, ccsim.Ext]) ccsim.Config {
		cfg.Procs = v.a
		cfg.Extensions = v.b
		return cfg
	})
	var rows []ScaleRow
	for i, wl := range ccsim.Workloads() {
		base := g[i][0].Cell()
		for j, procs := range ScaleProcs {
			c := g[i][j*len(exts):]
			rows = append(rows, ScaleRow{
				Workload: wl,
				Procs:    procs,
				Basic:    relCell(c[0].Cell(), base),
				PCW:      relCell(c[1].Cell(), base),
			})
		}
	}
	return rows, nil
}

// FprintScaling renders the scaling study.
func FprintScaling(w io.Writer, rows []ScaleRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tprocs\tBASIC\tP+CW")
	last := ""
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", rowName(&last, r.Workload), r.Procs,
			cellf("%.3f", r.Basic), cellf("%.3f", r.PCW))
	}
	tw.Flush()
}

// CostRow relates one combination's performance gain to the storage it
// adds — the companion technical report's cost/performance trade-off,
// computed for one workload.
type CostRow struct {
	Protocol  string
	Relative  float64 // execution time / BASIC's
	ExtraBits int64   // storage added per node over BASIC
	// GainPerKbit is the percentage-point execution-time reduction bought
	// per kilobit of added state (0 when nothing was added).
	GainPerKbit float64
}

// CostPerformance runs every combination on the named workload and prices
// its gain against its storage cost. Geometry: a 16-KB SLC (512 frames)
// and 1 MB of local memory (32 K blocks).
func CostPerformance(o Options, workloadName string) ([]CostRow, error) {
	const slcFrames, memBlocks = 512, 1 << 15
	s := o.scheduler()
	type cell struct {
		c    Combo
		cfg  ccsim.Config
		pend *Pending
	}
	var cells []cell
	for _, c := range Combos() {
		cfg := o.config(workloadName)
		cfg.Extensions = c.Ext
		cells = append(cells, cell{c, cfg, s.Submit(cfg)})
	}
	// The first combination, BASIC, is the baseline of both sides.
	base := cells[0].pend.Cell()
	baseBits := ccsim.ComputeStorage(cells[0].cfg, slcFrames, memBlocks)
	var rows []CostRow
	for _, g := range cells {
		r := g.pend.Cell()
		// The storage side is pure arithmetic: it stays meaningful even
		// when the run behind the performance side faulted.
		extra := ccsim.ComputeStorage(g.cfg, slcFrames, memBlocks).ExtraBitsOver(baseBits)
		row := CostRow{
			Protocol:  g.c.Name,
			Relative:  relCell(r, base),
			ExtraBits: extra,
		}
		if extra > 0 {
			row.GainPerKbit = 100 * (1 - row.Relative) / (float64(extra) / 1024)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintCost renders the cost/performance table.
func FprintCost(w io.Writer, workloadName string, rows []CostRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "protocol\trelative (%s)\textra bits/node\tgain %%/kbit\n", workloadName)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", r.Protocol,
			cellf("%.3f", r.Relative), r.ExtraBits, cellf("%.2f", r.GainPerKbit))
	}
	tw.Flush()
}
