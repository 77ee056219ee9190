package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"selspec/internal/programs"
)

// paperInputs builds the six embedded programs and their references.
func paperInputs() ([]*input, error) {
	bs := programs.Registry()
	ins := make([]*input, len(bs))
	err := parallel(len(bs), func(i int) error {
		var err error
		ins[i], err = newInput(bs[i], false)
		return err
	})
	return ins, err
}

// runPaper runs passes over every (program, configuration) cell until the
// measured time is used up, at least two passes so the deterministic
// counts can be compared. With tracing, odd passes are traced and even
// passes are not, so the overhead compares interleaved passes.
func runPaper(o runOpts) (*report, error) {
	rep := newReport()
	var ins []*input
	for i := 0; i < setups; i++ {
		err := rep.setupOnce(func() (err error) {
			ins, err = paperInputs()
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	resetPeakRSS()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The seed also fixes the order of the cells within a pass.
	type cellKey struct{ prog, cfg int }
	var order []cellKey
	for pi := range ins {
		for ci := range configs {
			order = append(order, cellKey{pi, ci})
		}
	}
	rng := rand.New(rand.NewSource(int64(o.seed)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	first := map[cellKey]counts{}
	var (
		cellRuns  = map[cellKey][]float64{} // untraced wall times per cell
		cfgPasses = map[int][]float64{}     // config → untraced pass totals
		cellMS    []float64                 // untraced cell wall times
		passMS    = map[bool][]float64{}    // traced? → pass totals
		traced    int                       // traced cells
		steps     uint64
		execNS    int64
		sumCounts counts
		fallbacks int
		op        int
	)
	start := time.Now()
	for pass := 0; ; pass++ {
		isTraced := o.trace && pass%2 == 1
		var t *tracer
		if isTraced {
			t = tr
		}
		passTotal := 0.0
		cfgTotal := make([]float64, len(configs))
		for _, k := range order {
			in, cfg := ins[k.prog], configs[k.cfg]
			op++
			// Each cell starts from a collected heap, so that no cell
			// pays for the garbage of the one before it and the seeded
			// order does not move its time.
			runtime.GC()
			rep.cal = append(rep.cal, calibrate())
			r := runCell(t, op, in, cfg)
			ms := float64(r.wall) / 1e6
			what := fmt.Sprintf("%s/%s", in.Name, cfg)
			rep.record(what, check(in, cfg, r.out, r.fellBack))
			if r.fellBack {
				fallbacks++
			}
			if c, ok := first[k]; !ok {
				first[k] = r.counts
			} else if c != r.counts && r.out.Err == "" {
				rep.fault(fmt.Sprintf("%s: deterministic counts changed between passes: %+v then %+v", what, c, r.counts))
			}
			passTotal += ms
			if isTraced {
				traced++
				steps += r.counts.Steps
				execNS += int64(r.exec)
				addCounts(&sumCounts, r.counts)
			} else {
				cellMS = append(cellMS, ms)
				cellRuns[k] = append(cellRuns[k], ms)
				cfgTotal[k.cfg] += ms
			}
		}
		passMS[isTraced] = append(passMS[isTraced], passTotal)
		if !isTraced {
			for ci, v := range cfgTotal {
				cfgPasses[ci] = append(cfgPasses[ci], v)
			}
		}
		if time.Since(start) >= o.dur && pass >= 1 {
			break
		}
	}

	// A configuration's time per pass is the sum over programs of each
	// cell's median: one slow cell moves its own median, not the pass.
	perCfg := make([]float64, len(configs))
	var cellMedians []float64
	for k, xs := range cellRuns {
		perCfg[k.cfg] += median(xs)
		cellMedians = append(cellMedians, median(xs))
	}
	for ci, cfg := range configs {
		rep.set("e2e_ms."+cfg.String(), "ms", perCfg[ci])
	}
	// Latency is a cell's: one caller's program, source to result, as
	// the cell's median over passes. The percentiles are over the 30
	// cells. Percentiles of all cell times pooled would sit where one
	// cell's times end and the next one's begin, at the slowest or
	// fastest pass of a single cell, and move with it.
	rep.set("latency_p50_ms", "ms", median(cellMedians))
	rep.set("latency_p90_ms", "ms", quantile(cellMedians, 0.9))
	rep.set("req_per_s", "1/s", float64(len(cellMedians))/(sum(cellMedians)/1e3))

	fmt.Fprintf(os.Stderr, "paper seed %d: %d programs × %d configs, %d untraced passes\n",
		o.seed, len(ins), len(configs), len(passMS[false]))
	for ci, cfg := range configs {
		fmt.Fprintf(os.Stderr, "  %-24s %10.3f  (sum of cell medians; per-pass totals below)\n", "e2e_ms."+cfg.String(), perCfg[ci])
		describe(os.Stderr, "pass_ms."+cfg.String(), cfgPasses[ci])
	}
	describe(os.Stderr, "cell_ms", cellMS)
	describe(os.Stderr, "cell_median_ms", cellMedians)
	describe(os.Stderr, "pass_ms", passMS[false])
	var keys []string
	for k, c := range first {
		keys = append(keys, fmt.Sprintf("%s/%s %+v", ins[k.prog].Name, configs[k.cfg], c))
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "deterministic counts digest %x\n", sha256.Sum256([]byte(strings.Join(keys, "\n"))))
	describe(os.Stderr, "setup_s", rep.setup)

	if o.trace {
		n := float64(traced)
		lt := tr.layerTotals()
		setLayers(rep, lt, n)
		rep.set("ir.nodes", "count", float64(sumCounts.IRNodes)/n)
		rep.set("profile.arcs", "count", float64(sumCounts.Arcs)/n)
		rep.set("specialize.added_specs", "count", float64(sumCounts.Added)/n)
		rep.set("opt.ir_nodes", "count", float64(sumCounts.OptIRNodes)/n)
		rep.set("opt.static_versions", "count", float64(sumCounts.StaticVersions)/n)
		rep.set("opt.lazy_compiles", "count", float64(sumCounts.LazyCompiles)/n)
		rep.set("dispatch.dynamic", "count", float64(sumCounts.Dispatches)/n)
		rep.set("dispatch.pic_hit_ratio", "ratio", ratio(sumCounts.PICHits, sumCounts.PICHits+sumCounts.PICMisses))
		rep.set("vm.steps_per_s", "1/s", float64(steps)/(float64(execNS)/1e9))
		rep.set("vm.fallbacks", "count", float64(fallbacks))
		cells := float64(len(ins) * len(configs))
		rep.set("trace.overhead_ms", "ms", (median(passMS[true])-median(passMS[false]))/cells)
		if err := tr.write(filepath.Join(outDir(), fmt.Sprintf("spans-paper-%d.json", o.seed))); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func addCounts(dst *counts, c counts) {
	dst.Steps += c.Steps
	dst.Dispatches += c.Dispatches
	dst.IRNodes += c.IRNodes
	dst.OptIRNodes += c.OptIRNodes
	dst.StaticVersions += c.StaticVersions
	dst.LazyCompiles += c.LazyCompiles
	dst.Added += c.Added
	dst.Arcs += c.Arcs
	dst.PICHits += c.PICHits
	dst.PICMisses += c.PICMisses
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setLayers turns span totals into per-operation layer metrics: each
// layer's self time per operation, so that the layers and the root's
// own remainder add up to the traced operation time.
func setLayers(rep *report, lt map[string]*layerTotal, ops float64) {
	msPerOp := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			if t := lt[n]; t != nil {
				ns += t.selfNS
			}
		}
		return float64(ns) / 1e6 / ops
	}
	mbPerOp := func(names ...string) float64 {
		var b int64
		for _, n := range names {
			if t := lt[n]; t != nil {
				b += t.allocB
			}
		}
		return float64(b) / 1e6 / ops
	}
	rep.set("lang.parse_ms", "ms", msPerOp("lang.parse"))
	rep.set("hier.build_ms", "ms", msPerOp("hier.build"))
	rep.set("ir.lower_ms", "ms", msPerOp("ir.lower"))
	rep.set("profile.train_ms", "ms", msPerOp("profile.train"))
	rep.set("profile.alloc_mb", "MB", mbPerOp("profile.train"))
	rep.set("specialize.ms", "ms", msPerOp("specialize"))
	var compiles []string
	for _, cfg := range configs {
		c := cfg.String()
		compiles = append(compiles, "opt.compile."+c)
		// Per-configuration layers are per operation of that
		// configuration: a fifth of all operations.
		rep.set("opt.compile_ms."+c, "ms", msPerOp("opt.compile."+c)*float64(len(configs)))
		rep.set("vm.exec_ms."+c, "ms", msPerOp("vm.exec."+c)*float64(len(configs)))
	}
	rep.set("opt.alloc_mb", "MB", mbPerOp(compiles...))
	// driver.Execute's self time: vm.New, the test-input overrides and glue.
	rep.set("vm.compile_ms", "ms", msPerOp("driver.execute"))
	rep.set("vmcheck.verify_ms", "ms", msPerOp("vmcheck.verify"))
	var total int64
	if root := lt["cell"]; root != nil {
		for _, t := range lt {
			total += t.selfNS
		}
		rep.set("trace.unaccounted_frac", "ratio", float64(root.selfNS)/float64(total))
	}
}
