package main

// Self-checks of the benchmark. They run the benchmark as separate
// processes (this test binary re-executed as the benchmark's main), so
// peak memory and deterministic counts are per process, as in a real
// run. They take a few minutes; -short skips them.
//
//	cd perfbench && go test -v .

import (
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PERFBENCH_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs one benchmark process and returns its result and its
// standard error.
func runBench(t *testing.T, args string) (result, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PERFBENCH_ARGS="+args, "CARGO_TARGET_DIR="+t.TempDir())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("perfbench %s: %v\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("perfbench %s: last line is not a result: %v", args, err)
	}
	return r, stderr.String()
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile checks that the metrics the benchmark
// prints are the ones BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) || !equalDefs(layers, perLayer) {
		t.Errorf("BENCHMARK.json metrics differ from the printed ones:\nfile e2e %v\nprog e2e %v\nfile layers %v\nprog layers %v", e2e, endToEnd, layers, perLayer)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSameSeedAgrees runs, for every workload, two sets of runs on one
// seed and checks that their medians agree within each end-to-end
// metric's bound. The runs of the two sets alternate, so a host that
// slows down over minutes slows both sets alike.
func TestSameSeedAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark six times per workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range []string{"paper", "serve"} {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 6; i++ {
			r, _ := runBench(t, "--workload "+w+" --seed 11 --seconds 10 --trace 0")
			for k, m := range r.Metrics {
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			if a == 0 {
				t.Errorf("%s %s: median is 0", w, m.Name)
				continue
			}
			if d := (b - a) / a; d > m.Bound || -d > m.Bound {
				t.Errorf("%s %s: medians %.4g then %.4g differ by %.1f%%, beyond the bound of %.0f%%", w, m.Name, a, b, 100*d, 100*m.Bound)
			}
		}
	}
}

var digestRE = regexp.MustCompile(`deterministic counts digest ([0-9a-f]+)`)

// TestCountsRepeatAcrossProcesses checks that steps, dispatches, IR
// nodes and static versions of every cell are identical in two
// processes (each run also checks them across its own passes).
func TestCountsRepeatAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	for _, w := range []string{"paper"} {
		var digests []string
		for i := 0; i < 2; i++ {
			r, stderr := runBench(t, "--workload "+w+" --seed 5 --seconds 1 --trace 0")
			if !r.Correct {
				t.Fatalf("%s: run not correct:\n%s", w, stderr)
			}
			m := digestRE.FindStringSubmatch(stderr)
			if m == nil {
				t.Fatalf("%s: no counts digest in:\n%s", w, stderr)
			}
			digests = append(digests, m[1])
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: deterministic counts differ between processes: %s vs %s", w, digests[0], digests[1])
		}
	}
}

// TestServeFailuresRepeat checks that two serve runs on one seed send
// the same requests and see the same failures. Seed 10's second
// generated source, which runs under Cust, is one the known Cust
// miscompile answers wrongly, so the failure must show in both.
func TestServeFailuresRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	var runs []result
	for i := 0; i < 2; i++ {
		r, stderr := runBench(t, "--workload serve --seed 10 --seconds 4 --trace 0")
		if !r.Correct {
			t.Fatalf("run not correct:\n%s", stderr)
		}
		runs = append(runs, r)
	}
	if runs[0].Attempted != runs[1].Attempted || runs[0].Failed != runs[1].Failed {
		t.Errorf("two runs on one seed differ: %d of %d failed, then %d of %d",
			runs[0].Failed, runs[0].Attempted, runs[1].Failed, runs[1].Attempted)
	}
	if runs[0].Failed == 0 {
		t.Errorf("the known Cust miscompile on seed 10 did not show")
	}
}

// TestHeldOutSeed runs every workload on a seed not used while the
// benchmark was tuned: every output must match the reference, apart
// from the known Cust miscompile, and the paper workload must not fail
// at all.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"paper", "serve"} {
		r, stderr := runBench(t, "--workload "+w+" --seed 90210 --seconds 4 --trace 1")
		if !r.Correct {
			t.Errorf("%s: unexpected failures:\n%s", w, stderr)
		}
		if w == "paper" && r.Failed != 0 {
			t.Errorf("paper: %d failed operations:\n%s", r.Failed, stderr)
		}
		if fb := r.Metrics["vm.fallbacks"].Value; fb != 0 {
			t.Errorf("%s: %v VM fallbacks", w, fb)
		}
		t.Logf("%s: %d of %d operations failed\n%s", w, r.Failed, r.Attempted, stderr)
	}
}
