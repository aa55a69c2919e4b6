package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"time"

	_ "repro/internal/experiments" // registers the experiments
	"repro/internal/experiments/engine"
)

// sim-tables: benchtab cells E6, E3 and E8 at N=16, one repeat, run
// one after another in a single goroutine. The timed pass always runs
// experiment seed 42 and must reproduce the golden CSV byte for byte:
// a cell's simulated work depends on its seed, so a fixed seed keeps
// run-to-run spread down to timing noise. The workload seed drives a
// second, untimed pass in which every cell must be valid.
const (
	simN         = 16
	simTimedSeed = 42
)

var simCells = []string{"E6", "E3", "E8"}

// goldenSeed42 is `benchtab -only E3,E6,E8 -sizes 16 -repeats 1 -seed 42
// -format csv`, recorded when the benchmark was defined.
//
//go:embed golden/sim-tables-seed42.csv
var goldenSeed42 []byte

// probeSim is the set-up probe: a fresh process initialises the
// simulator's experiment registry and resolves the workload's cells.
func probeSim() int {
	for _, id := range simCells {
		if _, ok := engine.Get(id); !ok {
			fmt.Fprintln(os.Stderr, "perfbench: experiment", id, "not registered")
			return 1
		}
	}
	return 0
}

// simSetup times probeSim in a fresh process.
func simSetup(ctx context.Context) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if out, err := exec.CommandContext(ctx, self, "-probe-sim").CombinedOutput(); err != nil {
		return 0, fmt.Errorf("set-up probe: %v: %s", err, out)
	}
	return time.Since(t0).Seconds(), nil
}

// simPass is one run of the three cells.
type simPass struct {
	secs    map[string]float64
	total   float64
	csv     []byte
	profile bytes.Buffer
	tr      *track
}

// runCells runs E6, E3 and E8 in order, each through engine.Run, and
// renders their combined report the way benchtab -format csv does.
func runCells(ctx context.Context, seed int64, traced bool) (*simPass, error) {
	p := &simPass{secs: map[string]float64{}}
	reports := map[string]*engine.Report{}
	if traced {
		p.tr = newTrack("sim", time.Now())
		if err := pprof.StartCPUProfile(&p.profile); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	for i, id := range simCells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var sp int32
		if p.tr != nil {
			sp = p.tr.begin(spanCell, uint32(i+1))
		}
		t0 := time.Now()
		rep, err := runCell(ctx, seed, id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		p.secs[id] = time.Since(t0).Seconds()
		p.total += p.secs[id]
		if p.tr != nil {
			p.tr.end(sp)
		}
		reports[id] = rep
	}
	// benchtab emits the experiments in registry order.
	all := &engine.Report{Seed: seed, Repeats: 1}
	for _, d := range engine.All() {
		if r, ok := reports[d.ID]; ok {
			all.Cells = append(all.Cells, r.Cells...)
			all.Summary = append(all.Summary, r.Summary...)
		}
	}
	var buf bytes.Buffer
	if err := engine.WriteCellsCSV(&buf, all); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	if err := engine.WriteSummaryCSV(&buf, all); err != nil {
		return nil, err
	}
	p.csv = buf.Bytes()
	return p, checkCells(all, seed, p.csv)
}

// runCell runs one experiment through engine.Run; an interrupt returns
// at once, leaving the cell to end with the process.
func runCell(ctx context.Context, seed int64, id string) (*engine.Report, error) {
	type out struct {
		rep *engine.Report
		err error
	}
	done := make(chan out, 1)
	go func() {
		rep, err := engine.Run(engine.Config{
			Seed: seed, Sizes: []int{simN}, Repeats: 1, Workers: 1, Only: map[string]bool{id: true},
		})
		done <- out{rep, err}
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case o := <-done:
		return o.rep, o.err
	}
}

// errCells reports cells that violate the workload's correctness rule.
type errCells []string

func (e errCells) Error() string { return fmt.Sprintf("%d invalid cells", len(e)) }

// checkCells checks every cell's validity against its series'
// expectation and, for the timed seed, the whole CSV against the golden
// copy.
func checkCells(rep *engine.Report, seed int64, csv []byte) error {
	var bad errCells
	for _, c := range rep.Cells {
		d, _ := engine.Get(c.Experiment)
		for _, s := range d.Series {
			if s.Key == c.Series && c.Valid == s.ExpectInvalid {
				bad = append(bad, fmt.Sprintf("%s/%s N=%d: valid=%v, want %v (%s)",
					c.Experiment, c.Series, c.N, c.Valid, !s.ExpectInvalid, c.Note))
			}
		}
	}
	if seed == simTimedSeed && !bytes.Equal(csv, goldenSeed42) {
		bad = append(bad, "seed 42 output differs from golden/sim-tables-seed42.csv")
	}
	if len(bad) > 0 {
		return bad
	}
	return nil
}

func runSimTables(ctx context.Context, cfg config) (*result, error) {
	res := &result{values: map[string]float64{}}
	res.printf("cells: %v at N=%d, one repeat, one goroutine; timed with seed %d, validated with seed %d",
		simCells, simN, simTimedSeed, cfg.seed)
	pass := func(seed int64, traced bool) (*simPass, error) {
		res.attempted += len(simCells)
		p, err := runCells(ctx, seed, traced)
		if bad, ok := err.(errCells); ok {
			res.violations = append(res.violations, bad...)
			return p, nil
		}
		return p, err
	}
	validate := func() error {
		if cfg.seed == simTimedSeed {
			return nil
		}
		_, err := pass(cfg.seed, false)
		return err
	}
	if !cfg.trace {
		var setups []float64
		for range 10 {
			s, err := simSetup(ctx)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		p, err := pass(simTimedSeed, false)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(0)
		if err != nil {
			return nil, err
		}
		if err := validate(); err != nil {
			return nil, err
		}
		var cells samples
		for _, id := range simCells {
			cells = append(cells, p.secs[id]*1e3)
			res.printf("%s_s %.4f s", id, p.secs[id])
		}
		cells = cells.sorted()
		res.set("ops_per_s", float64(len(simCells))/p.total)
		res.set("op_p50_ms", cells.quantile(0.5))
		res.set("op_p99_ms", cells.quantile(0.99))
		res.set("setup_s", slices.Min(setups))
		res.set("peak_rss_mb", rss)
		res.printf("tables_s %.4f s (ops_per_s = experiments per second; op_p99_ms is the slowest experiment)", p.total)
		res.printf("setup_s %.6f s (fastest of %d simulator start-up probes: %v)", slices.Min(setups), len(setups), roundAll(setups))
		res.printf("peak_rss_mb %.2f MB (this process, after the timed pass)", rss)
		return res, nil
	}

	base, err := pass(simTimedSeed, false)
	if err != nil {
		return nil, err
	}
	p, err := pass(simTimedSeed, true)
	if err != nil {
		return nil, err
	}
	if err := validate(); err != nil {
		return nil, err
	}
	for _, id := range simCells {
		res.set("sim."+id+"_s", p.secs[id])
	}
	counts, err := cpuCounts(p.profile.Bytes())
	if err != nil {
		res.printf("cpu profile unreadable: %v", err)
	}
	setCPUShares(res, counts)
	res.set("trace.overhead_share", 1-base.total/p.total)
	res.printf("tables_s: traced %.4f s vs untraced %.4f s", p.total, base.total)
	res.printf("live layers (http, node, vs, smr, datalink, tcp, wire, storage): n/a (simulator only)")
	lt := aggregate([]*track{p.tr}, 0, 1<<62)
	res.lines = append(res.lines, lt.selfTable(len(simCells))...)
	writeTrace(cfg, res, []*track{p.tr})
	return res, nil
}
