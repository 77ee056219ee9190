// Command perfbench measures what a caller pays to go from Mini-Cecil
// source text to a checked result, per configuration, and where that
// time goes layer by layer. It runs one workload per process:
//
//	paper  the six embedded programs × five configurations, cold, in sequence
//	serve  an in-process HTTP server under a closed loop of clients
//
// Every result is checked against the tree engine under Base. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it alternates
// untraced and traced passes (or halves, for serve) and prints the
// per-layer metrics and the tracing overhead. The last line of standard
// output is one JSON object; a human-readable summary goes to standard
// error.
//
// Usage (from the repository root; run.py builds and runs it):
//
//	perfbench --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setups is how many times a run sets up its workload; setup_s is the
// median.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a workload's metrics and failure accounting.
type report struct {
	metrics  map[string]metric
	attempts int
	failures int
	// broken is set when an operation fails unexpectedly or a check the
	// benchmark relies on fails.
	broken  bool
	reasons map[string]int
	setup   []float64
	// cal and setupCal are calibration kernel times (ms) taken between
	// the measured operations and during set-up.
	cal, setupCal []float64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, reasons: map[string]int{}}
}

// set records a metric. A ratio over an empty sample (no operation of
// that kind ran) is reported as 0, which JSON can carry.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// record counts one operation and its verdict.
func (r *report) record(what string, v verdict) {
	r.attempts++
	if !v.failed {
		return
	}
	r.failures++
	msg := what + ": " + v.reason
	if v.unexpected {
		msg = "UNEXPECTED: " + msg
		r.broken = true
	}
	r.reasons[msg]++
}

// fault marks the run's own checks as failed (nondeterminism, setup).
func (r *report) fault(msg string) {
	r.broken = true
	r.reasons["UNEXPECTED: "+msg]++
}

// setupOnce times one set-up, with a calibration before it.
func (r *report) setupOnce(fn func() error) error {
	r.setupCal = append(r.setupCal, calibrate(), calibrate(), calibrate())
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.setup = append(r.setup, time.Since(start).Seconds())
	return nil
}

// finish sets the metrics common to every workload and reports the
// end-to-end times at the reference host speed (see calib.go).
func (r *report) finish() {
	r.set("setup_s", "s", median(r.setup))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	failed := float64(r.failures) / float64(max(r.attempts, 1))
	r.set("ok_frac", "ratio", 1-failed)
	r.set("failed_frac", "ratio", failed)
	cal, setupCal := median(r.cal), median(r.setupCal)
	r.set("host.calib_ms", "ms", cal)
	fmt.Fprintf(os.Stderr, "host: calibration kernel median %.3f ms over %d runs (%.3f ms in set-up); reference %.3f ms\n",
		cal, len(r.cal), setupCal, calibRefMS)
	for _, m := range endToEnd {
		v, ok := r.metrics[m.name]
		if !ok {
			continue
		}
		scaled := v.Value
		switch {
		case m.name == "setup_s":
			scaled *= calibRefMS / setupCal
		case m.unit == "ms":
			scaled *= calibRefMS / cal
		case m.unit == "1/s":
			scaled *= cal / calibRefMS
		default:
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-24s %12.4f %s measured, %12.4f at reference speed\n", m.name, v.Value, v.Unit, scaled)
		r.set(m.name, m.unit, scaled)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns set-up's garbage to the operating system and
// restarts the peak resident set size from the current one, so that
// peak_rss_mb is the measured phase's peak, not set-up's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset, it includes set-up:", err)
	}
}

// outDir is where spans and the profile database live: the build
// directory inside the checkout.
func outDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return filepath.Join(d, "perfbench")
}

func main() {
	workload := flag.String("workload", "", "paper or serve")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opts := runOpts{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	var rep *report
	var err error
	switch *workload {
	case "paper":
		rep, err = runPaper(opts)
	case "serve":
		rep, err = runServe(opts)
	default:
		err = fmt.Errorf("unknown workload %q (want paper or serve)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.finish()
	if rep.failures > 0 || rep.broken {
		fmt.Fprintf(os.Stderr, "failures (%d of %d operations):\n", rep.failures, rep.attempts)
		keys := make([]string, 0, len(rep.reasons))
		for k := range rep.reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %4d× %s\n", rep.reasons[k], k)
		}
	}
	out := result{Correct: !rep.broken, Attempted: rep.attempts, Failed: rep.failures, Metrics: map[string]metric{}}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		out.Metrics[m.name] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type runOpts struct {
	seed  uint64
	dur   time.Duration
	trace bool
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics printed with -trace 0 and
// -trace 1; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"e2e_ms.Base", "ms"}, {"e2e_ms.Cust", "ms"}, {"e2e_ms.Cust-MM", "ms"}, {"e2e_ms.CHA", "ms"}, {"e2e_ms.Selective", "ms"},
	{"req_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"}, {"ok_frac", "ratio"}, {"setup_s", "s"},
}

var perLayer = []metricDef{
	{"lang.parse_ms", "ms"}, {"hier.build_ms", "ms"}, {"ir.lower_ms", "ms"}, {"ir.nodes", "count"},
	{"profile.train_ms", "ms"}, {"profile.alloc_mb", "MB"}, {"profile.arcs", "count"},
	{"specialize.ms", "ms"}, {"specialize.added_specs", "count"},
	{"opt.compile_ms.Base", "ms"}, {"opt.compile_ms.Cust", "ms"}, {"opt.compile_ms.Cust-MM", "ms"},
	{"opt.compile_ms.CHA", "ms"}, {"opt.compile_ms.Selective", "ms"},
	{"opt.alloc_mb", "MB"}, {"opt.ir_nodes", "count"}, {"opt.static_versions", "count"}, {"opt.lazy_compiles", "count"},
	{"vm.compile_ms", "ms"}, {"vmcheck.verify_ms", "ms"},
	{"vm.exec_ms.Base", "ms"}, {"vm.exec_ms.Cust", "ms"}, {"vm.exec_ms.Cust-MM", "ms"},
	{"vm.exec_ms.CHA", "ms"}, {"vm.exec_ms.Selective", "ms"},
	{"vm.steps_per_s", "1/s"}, {"vm.fallbacks", "count"},
	{"dispatch.dynamic", "count"}, {"dispatch.pic_hit_ratio", "ratio"},
	{"latency_p50_ms.bench", "ms"}, {"latency_p90_ms.bench", "ms"},
	{"latency_p50_ms.source", "ms"}, {"latency_p90_ms.source", "ms"},
	{"server.non_exec_ms", "ms"}, {"server.shed", "count"},
	{"profdb.ingest_ms", "ms"}, {"profdb.wal_mb", "MB"},
	{"trace.overhead_ms", "ms"}, {"trace.unaccounted_frac", "ratio"}, {"failed_frac", "ratio"},
	{"host.calib_ms", "ms"},
}
