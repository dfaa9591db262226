// Package exp regenerates every table and figure of the paper's evaluation
// (Dahlgren, Dubois & Stenström, ISCA 1994, §5). Each function runs the
// required simulations and returns structured rows; the Fprint helpers
// render them in the paper's layout. cmd/experiments and the repository's
// benchmarks are thin wrappers around this package.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"

	"ccsim"
)

// Fault-tolerant sweeps: every experiment collects its grid with
// Pending.Cell(), which yields nil for a faulted run instead of aborting
// the sweep. A faulted cell's derived metrics become NaN — the sentinel
// the Fprint helpers render as FAULT — and the fault itself sits in the
// scheduler's Failed ledger for cmd/experiments to dump.

// relCell returns r's execution time relative to base, or NaN when either
// run faulted.
func relCell(r, base *ccsim.Result) float64 {
	if r == nil || base == nil || base.ExecTime == 0 {
		return math.NaN()
	}
	return r.RelativeTo(base)
}

// cellf formats one numeric table cell, rendering the NaN fault sentinel
// as FAULT.
func cellf(format string, v float64) string {
	if math.IsNaN(v) {
		return "FAULT"
	}
	return fmt.Sprintf(format, v)
}

// Combo names one protocol-extension combination in the paper's order.
type Combo struct {
	Name string
	Ext  ccsim.Ext
}

// Combos returns the eight combinations as Figure 2 orders them:
// BASIC, P, CW, M, P+CW, P+M, CW+M, P+CW+M.
func Combos() []Combo {
	return []Combo{
		{"BASIC", ccsim.Ext{}},
		{"P", ccsim.Ext{P: true}},
		{"CW", ccsim.Ext{CW: true}},
		{"M", ccsim.Ext{M: true}},
		{"P+CW", ccsim.Ext{P: true, CW: true}},
		{"P+M", ccsim.Ext{P: true, M: true}},
		{"CW+M", ccsim.Ext{CW: true, M: true}},
		{"P+CW+M", ccsim.Ext{P: true, CW: true, M: true}},
	}
}

// Options tune a whole experiment sweep.
type Options struct {
	Scale float64 // workload problem-size multiplier (1.0 = default)
	Procs int     // processors (paper: 16)

	// Jobs bounds the number of simulations run concurrently when an
	// experiment has to create its own scheduler (Sched == nil); 0 selects
	// GOMAXPROCS. Worker count never changes results: runs are
	// deterministic and collected in declaration order.
	Jobs int

	// Sched, when non-nil, is the shared run scheduler: its cache
	// deduplicates identical configurations across every experiment using
	// it, and its MetricsDir (not this struct's) governs metrics output.
	// When nil, each experiment function builds a private scheduler from
	// Jobs and MetricsDir.
	Sched *Scheduler

	// MetricsDir, when non-empty, makes every simulation in a sweep write
	// its full Result as an indented JSON file into this directory (created
	// on first use). Filenames encode the workload, protocol, network and
	// any non-default machine parameters, so distinct configurations never
	// collide.
	MetricsDir string

	// InjectFault, when non-empty, arms the deliberate panic in every run
	// whose "workload/protocol" identity matches (ccsim.Config.FaultInject).
	// Exactly the named cell faults; the sweep renders it as FAULT and
	// completes the rest.
	InjectFault string

	// MaxEvents and Deadline, when non-zero, bound every run in the sweep
	// (ccsim.Config fields of the same names). Exceeding either aborts the
	// run with a SimFault instead of hanging the sweep.
	MaxEvents uint64
	Deadline  int64

	// Check attaches a fresh live coherence checker (ccsim.Config.Check)
	// to every run in the sweep: each simulation's protocol transitions
	// are asserted against shadow state, and the first violation aborts
	// that run with a SimFault. Checked runs bypass the scheduler's dedup
	// cache and cost simulation speed; meant for validation sweeps.
	Check bool

	// Sharing attaches a fresh sharing-pattern analyzer (ccsim.Config.
	// Sharing) to every run; each run's per-class totals merge into the
	// scheduler's aggregate (Scheduler.SharingReport, which
	// `experiments -sharing` prints to stderr at the end). Analyzed runs
	// bypass the dedup cache.
	Sharing bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options { return Options{Scale: 1.0, Procs: 16} }

func (o Options) config(wl string) ccsim.Config {
	cfg := ccsim.DefaultConfig()
	cfg.Workload = wl
	cfg.Scale = o.Scale
	cfg.Procs = o.Procs
	cfg.FaultInject = o.InjectFault
	cfg.MaxEvents = o.MaxEvents
	cfg.Deadline = o.Deadline
	if o.Check {
		cfg.Check = ccsim.NewChecker()
	}
	if o.Sharing {
		cfg.Sharing = ccsim.NewSharingAnalytics()
	}
	return cfg
}

// scheduler returns the sweep's run scheduler: the shared one when set,
// otherwise a fresh private pool.
func (o Options) scheduler() *Scheduler {
	if o.Sched != nil {
		return o.Sched
	}
	return NewScheduler(o.Jobs, o.MetricsDir)
}

// metricsName builds a collision-safe filename for one run's metrics: every
// configuration axis a sweep varies appears in the name.
func metricsName(cfg ccsim.Config) string {
	name := fmt.Sprintf("%s_%s", cfg.Workload, cfg.ProtocolName())
	if cfg.Net == ccsim.Mesh {
		name += fmt.Sprintf("_mesh%d", cfg.LinkBits)
	}
	name += fmt.Sprintf("_p%d", cfg.Procs)
	if cfg.SLCBlocks > 0 {
		name += fmt.Sprintf("_slc%d", cfg.SLCBlocks)
	}
	if cfg.SLCWays > 1 {
		name += fmt.Sprintf("_w%d", cfg.SLCWays)
	}
	if cfg.FLWBEntries > 0 || cfg.SLWBEntries > 0 {
		name += fmt.Sprintf("_wb%d-%d", cfg.FLWBEntries, cfg.SLWBEntries)
	}
	if cfg.DirPointers > 0 {
		name += fmt.Sprintf("_dir%d", cfg.DirPointers)
	}
	if cfg.Scale != 1.0 {
		name += fmt.Sprintf("_x%g", cfg.Scale)
	}
	return name + ".json"
}

func writeMetrics(dir string, cfg ccsim.Config, r *ccsim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, metricsName(cfg)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fig2Row is one bar of Figure 2: a protocol's execution time under RC
// relative to BASIC, decomposed into busy, read-stall and acquire-stall
// shares (of the BASIC execution time, so bars compare directly).
type Fig2Row struct {
	Workload string
	Protocol string
	Relative float64 // execution time / BASIC's
	Busy     float64 // per-processor busy share of BASIC exec time
	Read     float64
	Acquire  float64

	Result *ccsim.Result
}

// Figure2 reproduces Figure 2: all eight protocols under release
// consistency on the contention-free network. The whole grid is submitted
// to the run scheduler up front and collected in the paper's order.
func Figure2(o Options) ([]Fig2Row, error) {
	s := o.scheduler()
	type cell struct {
		wl   string
		c    Combo
		pend *Pending
	}
	var grid []cell
	for _, wl := range ccsim.Workloads() {
		for _, c := range Combos() {
			cfg := o.config(wl)
			cfg.Extensions = c.Ext
			grid = append(grid, cell{wl, c, s.Submit(cfg)})
		}
	}
	var rows []Fig2Row
	var base *ccsim.Result
	for i, g := range grid {
		r := g.pend.Cell()
		if i%len(Combos()) == 0 { // first combo of each workload is the baseline
			base = r
		}
		row := Fig2Row{
			Workload: g.wl,
			Protocol: g.c.Name,
			Relative: relCell(r, base),
			Busy:     math.NaN(),
			Read:     math.NaN(),
			Acquire:  math.NaN(),
			Result:   r,
		}
		if r != nil && base != nil && base.ExecTime != 0 {
			denom := float64(base.ExecTime) * float64(o.Procs)
			row.Busy = float64(r.Busy) / denom
			row.Read = float64(r.ReadStall) / denom
			row.Acquire = float64(r.AcquireStall) / denom
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintFigure2 renders Figure 2 rows.
func FprintFigure2(w io.Writer, rows []Fig2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tprotocol\trelative\tbusy\tread\tacquire")
	last := ""
	for _, r := range rows {
		name := r.Workload
		if name == last {
			name = ""
		} else {
			last = r.Workload
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			name, r.Protocol, cellf("%.3f", r.Relative), cellf("%.3f", r.Busy),
			cellf("%.3f", r.Read), cellf("%.3f", r.Acquire))
	}
	tw.Flush()
}

// Table2Row is one application row of Table 2: the cold and coherence
// miss-rate components (percent of shared reads) for BASIC, P, CW and P+CW.
type Table2Row struct {
	Workload string
	Cold     map[string]float64 // protocol -> cold %
	Coh      map[string]float64 // protocol -> coherence %
}

// Table2Protocols lists the protocols Table 2 compares.
var Table2Protocols = []string{"BASIC", "P", "CW", "P+CW"}

// Table2 reproduces Table 2's miss-rate components under RC. Its four
// protocols are a subset of Figure 2's grid, so under a shared scheduler
// the whole table comes from the cache.
func Table2(o Options) ([]Table2Row, error) {
	s := o.scheduler()
	combos := map[string]ccsim.Ext{
		"BASIC": {}, "P": {P: true}, "CW": {CW: true}, "P+CW": {P: true, CW: true},
	}
	grid := make(map[string]map[string]*Pending)
	for _, wl := range ccsim.Workloads() {
		grid[wl] = make(map[string]*Pending)
		for _, name := range Table2Protocols {
			cfg := o.config(wl)
			cfg.Extensions = combos[name]
			grid[wl][name] = s.Submit(cfg)
		}
	}
	var rows []Table2Row
	for _, wl := range ccsim.Workloads() {
		row := Table2Row{Workload: wl, Cold: map[string]float64{}, Coh: map[string]float64{}}
		for _, name := range Table2Protocols {
			r := grid[wl][name].Cell()
			if r == nil {
				row.Cold[name], row.Coh[name] = math.NaN(), math.NaN()
				continue
			}
			row.Cold[name] = r.ColdMissRate()
			row.Coh[name] = r.CoherenceMissRate()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintTable2 renders Table 2.
func FprintTable2(w io.Writer, rows []Table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "appl.")
	for _, p := range Table2Protocols {
		fmt.Fprintf(tw, "\t%s cold\t%s coh", p, p)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s", r.Workload)
		for _, p := range Table2Protocols {
			fmt.Fprintf(tw, "\t%s\t%s", cellf("%.2f", r.Cold[p]), cellf("%.2f", r.Coh[p]))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig3Row is one bar of Figure 3: execution time under sequential
// consistency relative to B-SC, decomposed into all five components, plus
// the comparison against BASIC under RC (the figure's dashed line).
type Fig3Row struct {
	Workload  string
	Protocol  string
	Relative  float64 // vs B-SC
	Busy      float64
	Read      float64
	Write     float64
	Acquire   float64
	Release   float64
	VsBasicRC float64 // execution time / BASIC-RC's (dashed line = 1.0)

	Result *ccsim.Result
}

// Figure3Protocols lists the SC designs of Figure 3.
var Figure3Protocols = []Combo{
	{"B-SC", ccsim.Ext{}},
	{"P", ccsim.Ext{P: true}},
	{"M-SC", ccsim.Ext{M: true}},
	{"P+M", ccsim.Ext{P: true, M: true}},
}

// Figure3 reproduces Figure 3: P and M under sequential consistency (CW is
// not feasible under SC), with BASIC-RC as the reference line.
func Figure3(o Options) ([]Fig3Row, error) {
	s := o.scheduler()
	type group struct {
		wl    string
		rc    *Pending
		cells []*Pending
	}
	var grid []group
	for _, wl := range ccsim.Workloads() {
		g := group{wl: wl, rc: s.Submit(o.config(wl))}
		for _, c := range Figure3Protocols {
			cfg := o.config(wl)
			cfg.Extensions = c.Ext
			cfg.SC = true
			g.cells = append(g.cells, s.Submit(cfg))
		}
		grid = append(grid, g)
	}
	var rows []Fig3Row
	for _, g := range grid {
		basicRC := g.rc.Cell()
		var base *ccsim.Result
		for i, c := range Figure3Protocols {
			r := g.cells[i].Cell()
			if i == 0 {
				base = r
			}
			row := Fig3Row{
				Workload:  g.wl,
				Protocol:  c.Name,
				Relative:  relCell(r, base),
				Busy:      math.NaN(),
				Read:      math.NaN(),
				Write:     math.NaN(),
				Acquire:   math.NaN(),
				Release:   math.NaN(),
				VsBasicRC: math.NaN(),
				Result:    r,
			}
			if r != nil && base != nil && base.ExecTime != 0 {
				denom := float64(base.ExecTime) * float64(o.Procs)
				row.Busy = float64(r.Busy) / denom
				row.Read = float64(r.ReadStall) / denom
				row.Write = float64(r.WriteStall) / denom
				row.Acquire = float64(r.AcquireStall) / denom
				row.Release = float64(r.ReleaseStall) / denom
			}
			if r != nil && basicRC != nil && basicRC.ExecTime != 0 {
				row.VsBasicRC = float64(r.ExecTime) / float64(basicRC.ExecTime)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FprintFigure3 renders Figure 3 rows.
func FprintFigure3(w io.Writer, rows []Fig3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tprotocol\trel(B-SC)\tbusy\tread\twrite\tacquire\trelease\tvs BASIC-RC")
	last := ""
	for _, r := range rows {
		name := r.Workload
		if name == last {
			name = ""
		} else {
			last = r.Workload
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			name, r.Protocol, cellf("%.3f", r.Relative), cellf("%.3f", r.Busy),
			cellf("%.3f", r.Read), cellf("%.3f", r.Write), cellf("%.3f", r.Acquire),
			cellf("%.3f", r.Release), cellf("%.3f", r.VsBasicRC))
	}
	tw.Flush()
}

// Table3Row is one application row of Table 3: execution-time ratios of
// P+CW and P+M to BASIC on wormhole meshes of each link width, under RC.
type Table3Row struct {
	Workload string
	PCW      map[int]float64 // link bits -> exec(P+CW)/exec(BASIC)
	PM       map[int]float64
}

// Table3LinkWidths are the mesh link widths the paper sweeps.
var Table3LinkWidths = []int{64, 32, 16}

// Table3 reproduces Table 3: the impact of network contention. The shared
// per-link-width BASIC baseline is submitted once per (workload, width)
// cell and deduplicated by the run cache — the paper's three protocols per
// width never re-simulate it.
func Table3(o Options) ([]Table3Row, error) {
	s := o.scheduler()
	submit := func(wl string, bits int, e ccsim.Ext) *Pending {
		cfg := o.config(wl)
		cfg.Extensions = e
		cfg.Net = ccsim.Mesh
		cfg.LinkBits = bits
		return s.Submit(cfg)
	}
	type cell struct{ base, pcw, pm *Pending }
	grid := make(map[string]map[int]cell)
	for _, wl := range ccsim.Workloads() {
		grid[wl] = make(map[int]cell)
		for _, bits := range Table3LinkWidths {
			grid[wl][bits] = cell{
				base: submit(wl, bits, ccsim.Ext{}),
				pcw:  submit(wl, bits, ccsim.Ext{P: true, CW: true}),
				pm:   submit(wl, bits, ccsim.Ext{P: true, M: true}),
			}
		}
	}
	var rows []Table3Row
	for _, wl := range ccsim.Workloads() {
		row := Table3Row{Workload: wl, PCW: map[int]float64{}, PM: map[int]float64{}}
		for _, bits := range Table3LinkWidths {
			c := grid[wl][bits]
			base := c.base.Cell()
			row.PCW[bits] = relCell(c.pcw.Cell(), base)
			row.PM[bits] = relCell(c.pm.Cell(), base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintTable3 renders Table 3.
func FprintTable3(w io.Writer, rows []Table3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "links")
	for _, r := range rows {
		fmt.Fprintf(tw, "\t%s", r.Workload)
	}
	fmt.Fprintln(tw)
	for _, proto := range []string{"P+CW", "P+M"} {
		fmt.Fprintf(tw, "%s\n", proto)
		for _, bits := range Table3LinkWidths {
			fmt.Fprintf(tw, "  %d-bit", bits)
			for _, r := range rows {
				v := r.PCW[bits]
				if proto == "P+M" {
					v = r.PM[bits]
				}
				fmt.Fprintf(tw, "\t%s", cellf("%.2f", v))
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

// Fig4Row is one bar of Figure 4: a protocol's total network traffic
// normalized to BASIC's.
type Fig4Row struct {
	Workload string
	Protocol string
	Traffic  float64 // bytes / BASIC bytes
}

// Figure4Protocols lists the protocols Figure 4 plots.
var Figure4Protocols = []Combo{
	{"BASIC", ccsim.Ext{}},
	{"P", ccsim.Ext{P: true}},
	{"CW", ccsim.Ext{CW: true}},
	{"M", ccsim.Ext{M: true}},
	{"P+CW", ccsim.Ext{P: true, CW: true}},
	{"P+M", ccsim.Ext{P: true, M: true}},
}

// Figure4 reproduces Figure 4: total network traffic per protocol,
// normalized to BASIC, under RC on the uniform network. Every cell is
// shared with Figure 2's grid under a shared scheduler.
func Figure4(o Options) ([]Fig4Row, error) {
	s := o.scheduler()
	type cell struct {
		wl   string
		c    Combo
		pend *Pending
	}
	var grid []cell
	for _, wl := range ccsim.Workloads() {
		for _, c := range Figure4Protocols {
			cfg := o.config(wl)
			cfg.Extensions = c.Ext
			grid = append(grid, cell{wl, c, s.Submit(cfg)})
		}
	}
	var rows []Fig4Row
	var base *ccsim.Result
	for i, g := range grid {
		r := g.pend.Cell()
		if i%len(Figure4Protocols) == 0 {
			base = r
		}
		traffic := math.NaN()
		if r != nil && base != nil {
			traffic = r.TrafficRelativeTo(base)
		}
		rows = append(rows, Fig4Row{
			Workload: g.wl,
			Protocol: g.c.Name,
			Traffic:  traffic,
		})
	}
	return rows, nil
}

// FprintFigure4 renders Figure 4 rows as the paper's percentages.
func FprintFigure4(w io.Writer, rows []Fig4Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, c := range Figure4Protocols {
		fmt.Fprintf(tw, "\t%s", c.Name)
	}
	fmt.Fprintln(tw)
	byWl := map[string][]Fig4Row{}
	var order []string
	for _, r := range rows {
		if len(byWl[r.Workload]) == 0 {
			order = append(order, r.Workload)
		}
		byWl[r.Workload] = append(byWl[r.Workload], r)
	}
	for _, wl := range order {
		fmt.Fprintf(tw, "%s", wl)
		for _, r := range byWl[wl] {
			fmt.Fprintf(tw, "\t%s", cellf("%.0f%%", 100*r.Traffic))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
