package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selspec/internal/driver"
	"selspec/internal/gen"
	"selspec/internal/interp"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profdb"
	"selspec/internal/programs"
	"selspec/internal/server"
)

// The serve workload: a closed loop of serveClients clients, each
// sending its next request when the previous one is answered. Out of
// every ten requests six run an embedded program (repeated keys), two
// run freshly generated source (unique keys) and two upload a profile
// to the profile database. Bench requests go through every
// (program, configuration) pair in rounds, each in a seeded order, and
// source requests through the configurations, so every seed asks for
// the same mix.
// No record of real traffic exists, so the shares are synthetic: each
// source request needs a reference computed at setup, which is why
// their share is small.
//
// A run sends the whole sequence, and its measured time is the time to
// answer it: serveRate requests per requested second, the rate of a
// 2-core machine, so about that many seconds there. A run that stopped
// at a deadline would end at a different request each time, and would
// check a different number of generated sources, some of which the
// known Cust defect answers wrongly. A whole sequence makes the
// requests, and so the failures, the same on every run with one seed.
//
// One client: on a 2-core machine shared with other tenants, two
// clients each keeping a core busy measured the neighbours' load more
// than the server (quartile spread of bench latency over five seeds
// 0.20-0.30 with two clients, 0.14-0.21 with one, in the same hour).
// It also leaves the server idle while the client times the
// calibration kernel (calib.go) between requests.
const (
	serveClients  = 1
	sourceClasses = 40
	serveRate     = 11
)

var mix = [10]string{"bench", "source", "bench", "upload", "bench", "bench", "source", "bench", "upload", "bench"}

type request struct {
	kind string // bench, source or upload
	path string
	body []byte
	in   *input // reference; nil for uploads
	cfg  opt.Config
}

// serveEnv is one set-up server with its request sequence.
type serveEnv struct {
	reqs []request
	reg  *obs.Registry
	db   *profdb.DB
	hs   *http.Server
	done chan struct{}
	url  string
	dir  string
}

// serveRequests generates n requests and their references from the
// seed, with one training profile per embedded program to upload.
func serveRequests(seed uint64, n int) ([]request, error) {
	reqs := make([]request, n)
	var sources []int
	for i := range reqs {
		reqs[i].kind = mix[i%len(mix)]
		if reqs[i].kind == "source" {
			reqs[i].path, reqs[i].cfg = "/run", configs[len(sources)%len(configs)]
			sources = append(sources, i)
		}
	}
	// One pool computes both, so that the few long reference and
	// training runs of the embedded programs overlap the many short
	// reference runs of the generated sources.
	reg := programs.Registry()
	paper := make([]*input, len(reg))
	uploads := make([]request, len(reg))
	err := parallel(len(reg)+len(sources), func(i int) error {
		if k := i - len(reg); k >= 0 {
			b := gen.New(gen.Config{Seed: seed<<32 | uint64(k), Classes: sourceClasses}).Benchmark()
			b.Train, b.Test = nil, nil // posted source runs on its own globals
			in, err := newInput(b, true)
			reqs[sources[k]].in = in
			return err
		}
		b := reg[i]
		in, err := newInput(b, false)
		if err != nil {
			return err
		}
		p, err := driver.LoadNamed(b.Name, b.Source)
		if err != nil {
			return err
		}
		cg, err := p.CollectProfile(driver.RunOptions{Overrides: b.Train, Mechanism: interp.MechPIC})
		if err != nil {
			return fmt.Errorf("profile of %s: %w", b.Name, err)
		}
		body, err := cg.MarshalJSON()
		if err != nil {
			return err
		}
		paper[i] = in
		uploads[i] = request{kind: "upload", path: "/profiles/" + b.Name, body: body}
		return nil
	})
	if err != nil {
		return nil, err
	}
	type combo struct {
		in  *input
		cfg opt.Config
	}
	var combos []combo
	for _, in := range paper {
		for _, cfg := range configs {
			combos = append(combos, combo{in, cfg})
		}
	}
	// Each round of pairs comes in a fresh seeded order, so that no pair
	// always runs beside the same neighbour on the other client.
	rng := rand.New(rand.NewSource(int64(seed)))
	var nb, nu int
	for i := range reqs {
		switch reqs[i].kind {
		case "bench":
			if nb%len(combos) == 0 {
				rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
			}
			c := combos[nb%len(combos)]
			nb++
			reqs[i] = request{kind: "bench", path: "/run", in: c.in, cfg: c.cfg}
		case "upload":
			reqs[i] = uploads[nu%len(uploads)]
			nu++
		}
	}
	for i := range reqs {
		r := &reqs[i]
		if r.kind == "upload" {
			continue
		}
		rr := server.RunRequest{Label: "r" + strconv.Itoa(i), Config: r.cfg.String(), Stats: true}
		if r.kind == "bench" {
			rr.Bench = r.in.Name
		} else {
			rr.Source = r.in.Source
		}
		if r.body, err = json.Marshal(rr); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// setupServe builds the request sequence and starts the server, with
// its profile database and the bytecode verifier on, on a loopback
// listener.
func setupServe(seed uint64, n, idx int) (*serveEnv, error) {
	reqs, err := serveRequests(seed, n)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{reqs: reqs, reg: obs.NewRegistry(), done: make(chan struct{})}
	env.dir = filepath.Join(outDir(), fmt.Sprintf("profdb-%d-%d", os.Getpid(), idx))
	if err := os.RemoveAll(env.dir); err != nil {
		return nil, err
	}
	if env.db, err = profdb.Open(env.dir, profdb.Config{Metrics: env.reg}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.db.Close()
		return nil, err
	}
	env.url = "http://" + ln.Addr().String()
	srv := server.New(server.Config{Metrics: env.reg, Verify: true, ProfileDB: env.db})
	env.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(env.done)
		_ = env.hs.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	resp, err := http.Get(env.url + "/readyz")
	if err != nil {
		env.close()
		return nil, err
	}
	resp.Body.Close()
	return env, nil
}

// close stops the server, waits for its goroutine to end, and removes
// the profile database.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // on timeout, Close below cuts the connections
	_ = e.hs.Close()
	<-e.done
	e.db.Close()
	os.RemoveAll(e.dir)
}

// scrape reads the server's /metrics into series → value.
func (e *serveEnv) scrape() (map[string]float64, error) {
	resp, err := http.Get(e.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sample is one answered request as its client saw it.
type sample struct {
	idx     int
	latency time.Duration
	status  int
	run     server.RunResponse
	errBody server.ErrorBody
	traced  bool
}

func runServe(o runOpts) (*report, error) {
	rep := newReport()
	n := int(o.dur.Seconds() * serveRate)
	var env *serveEnv
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
		}
		err := rep.setupOnce(func() (err error) {
			env, err = setupServe(o.seed, n, i)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	defer env.close()
	resetPeakRSS()
	// As in `selspec serve`, the pipeline's stage observer feeds the
	// server's metrics registry for the whole run.
	defer pipeline.SetObserver(pipeline.NewObserver(env.reg, nil))()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()

	// With tracing, the first half of the sequence runs untraced and the
	// second half with client spans and the stage observer's span log;
	// the difference in mean latency is the tracing overhead. Clients
	// hold gate for reading during a request, so the switch waits for
	// the requests in flight and every request is wholly in one half.
	tr := newTracer()
	stages := obs.NewTracer(1 << 20)
	var (
		gate     sync.RWMutex
		tracing  bool
		next     atomic.Int64
		mu       sync.Mutex
		samples  []sample
		firstErr error
		wg       sync.WaitGroup
		before   map[string]float64
		paused   time.Duration
		untrace  func()
	)
	traceOn := func() error {
		gate.Lock()
		defer gate.Unlock()
		var err error
		if before, err = env.scrape(); err != nil {
			return err
		}
		untrace = pipeline.SetObserver(pipeline.NewObserver(env.reg, stages))
		tracing = true
		return nil
	}
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(env.reqs) {
					return
				}
				if o.trace && i == len(env.reqs)/2 {
					if err := traceOn(); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
				req := env.reqs[i]
				// Each request starts from a collected heap, as each
				// paper cell does, so that no request pays for the
				// garbage of the one before it: a bench pair's latency
				// spread within a run fell from 0.27 to 0.21 (median
				// quartile distance over median across the 30 pairs).
				pause := time.Now()
				runtime.GC()
				cal := calibrate()
				mu.Lock()
				rep.cal = append(rep.cal, cal)
				paused += time.Since(pause)
				mu.Unlock()
				gate.RLock()
				traced := tracing
				var t *tracer
				if traced {
					t = tr
				}
				sp := t.begin(i, "server."+req.kind, -1)
				s, err := post(client, env.url+req.path, req.body)
				t.end(sp)
				gate.RUnlock()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					s.idx, s.traced = i, traced
					samples = append(samples, s)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if untrace != nil {
		defer untrace()
	}
	// The collections and calibrations between requests are not the
	// server's time.
	elapsed := time.Since(start) - paused/serveClients
	if firstErr != nil {
		return nil, firstErr
	}
	after, err := env.scrape()
	if err != nil {
		return nil, err
	}
	serveMetrics(rep, o, env, samples, elapsed)
	if o.trace {
		serveLayers(rep, env, samples, stages, before, after)
		if err := tr.write(filepath.Join(outDir(), fmt.Sprintf("spans-serve-%d.json", o.seed))); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// post sends one request and decodes its response body.
func post(c *http.Client, url string, body []byte) (sample, error) {
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return sample{}, err
	}
	s := sample{latency: time.Since(start), status: resp.StatusCode}
	dst := any(&s.run)
	if resp.StatusCode != http.StatusOK {
		dst = &s.errBody
	}
	if err := json.Unmarshal(data, dst); err != nil {
		return sample{}, fmt.Errorf("decoding response from %s: %w", url, err)
	}
	return s, nil
}

// serveMetrics checks every answer and computes the end-to-end metrics.
func serveMetrics(rep *report, o runOpts, env *serveEnv, samples []sample, elapsed time.Duration) {
	var runs []float64               // untraced /run latencies
	byKind := map[string][]float64{} // kind → untraced latencies
	byCell := map[string][]float64{} // program/config → bench latencies
	kinds := map[string]int{}
	for _, s := range samples {
		req := env.reqs[s.idx]
		kinds[req.kind]++
		ms := float64(s.latency) / 1e6
		if !s.traced {
			byKind[req.kind] = append(byKind[req.kind], ms)
			if req.kind != "upload" {
				runs = append(runs, ms)
			}
		}
		what := fmt.Sprintf("request %d (%s", s.idx, req.kind)
		if req.in != nil {
			what += fmt.Sprintf(" %s/%s", req.in.Name, req.cfg)
		}
		what += ")"
		switch {
		case s.status == http.StatusTooManyRequests:
			rep.record(what, verdict{failed: true, reason: "shed with 429"})
		case req.kind == "upload":
			v := verdict{}
			if s.status != http.StatusOK {
				v = verdict{failed: true, unexpected: true, reason: fmt.Sprintf("upload answered %d: %s", s.status, s.errBody.Error)}
			}
			rep.record(what, v)
		default:
			got := outcome{Value: s.run.Value, Output: s.run.Output}
			if s.status != http.StatusOK {
				got = outcome{Err: s.errBody.Error}
			}
			fellBack := s.status == http.StatusOK && s.run.Engine != "vm"
			rep.record(what, check(req.in, req.cfg, got, fellBack))
			if req.kind == "bench" && !s.traced {
				k := req.in.Name + "/" + req.cfg.String()
				byCell[k] = append(byCell[k], ms)
			}
		}
	}
	for _, cfg := range configs {
		total := 0.0
		for _, b := range programs.Registry() {
			total += median(byCell[b.Name+"/"+cfg.String()])
		}
		rep.set("e2e_ms."+cfg.String(), "ms", total)
	}
	rep.set("req_per_s", "1/s", float64(len(samples))/elapsed.Seconds())
	rep.set("latency_p50_ms", "ms", median(runs))
	rep.set("latency_p90_ms", "ms", quantile(runs, 0.9))
	// The mix is synthetic, so each kind's latency is reported on its
	// own as well: a change can be judged per kind whatever the shares.
	for _, kind := range []string{"bench", "source"} {
		rep.set("latency_p50_ms."+kind, "ms", median(byKind[kind]))
		rep.set("latency_p90_ms."+kind, "ms", quantile(byKind[kind], 0.9))
	}
	fmt.Fprintf(os.Stderr, "serve seed %d: %d clients, %d requests in %.1fs (bench %d, source %d, upload %d)\n",
		o.seed, serveClients, len(samples), elapsed.Seconds(), kinds["bench"], kinds["source"], kinds["upload"])
	describe(os.Stderr, "run_latency_ms", runs)
	for _, kind := range []string{"bench", "source", "upload"} {
		describe(os.Stderr, kind+"_latency_ms", byKind[kind])
	}
	for _, cfg := range configs {
		fmt.Fprintf(os.Stderr, "  %-24s %10.3f\n", "e2e_ms."+cfg.String(), rep.metrics["e2e_ms."+cfg.String()].Value)
	}
	describe(os.Stderr, "setup_s", rep.setup)
}

// serveLayers derives the per-layer metrics of the traced half. The
// server's layers are timed by the pipeline's stage observer, whose
// spans carry the stage, the request label and the configuration but
// no parent; client spans time each request end to end.
func serveLayers(rep *report, env *serveEnv, samples []sample, stages *obs.Tracer, before, after map[string]float64) {
	cfgOf := map[string]opt.Config{} // request label → configuration
	var ops float64
	perCfg := map[string]float64{}
	execNS := map[string]float64{}
	var wallNS, latNS, nonExec, ingest []float64
	var dyn, irNodes, versions float64
	for _, s := range samples {
		if !s.traced {
			continue
		}
		ops++
		req := env.reqs[s.idx]
		if req.kind == "upload" {
			ingest = append(ingest, float64(s.latency)/1e6)
			continue
		}
		cfgOf["r"+strconv.Itoa(s.idx)] = req.cfg
		if s.status != http.StatusOK || s.run.Stats == nil {
			continue
		}
		st := s.run.Stats
		perCfg[req.cfg.String()]++
		execNS[req.cfg.String()] += float64(st.WallNS)
		wallNS = append(wallNS, float64(st.WallNS))
		latNS = append(latNS, float64(s.latency))
		nonExec = append(nonExec, float64(s.latency.Nanoseconds()-st.WallNS)/1e6)
		dyn += float64(st.Dispatches + st.VersionSelects)
		irNodes += float64(st.IRNodes)
		versions += float64(st.StaticVersions)
	}

	stageNS := map[string]float64{}
	var trainCompile float64
	compileNS := map[string]float64{}
	for _, sp := range stages.Spans() {
		stageNS[sp.Name] += float64(sp.D)
		if sp.Name != string(pipeline.StageCompile) {
			continue
		}
		// Detail is "compile [label/config]": a Base compile inside a
		// Selective request is its training run's.
		label, cfg, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(sp.Detail, "compile ["), "]"), "/")
		if reqCfg, ok := cfgOf[label]; ok && reqCfg == opt.Selective && cfg == opt.Base.String() {
			trainCompile += float64(sp.D)
		} else {
			compileNS[cfg] += float64(sp.D)
		}
	}
	// Every interp span is either a measured run, whose time the
	// response reports as wall_ns, or a Selective training run.
	trainInterp := stageNS[string(pipeline.StageInterp)] - sum(wallNS)
	inner := 0.0
	for name, ns := range stageNS {
		if name != string(pipeline.StageHarness) {
			inner += ns
		}
	}
	perOp := func(ns float64) float64 { return ns / 1e6 / ops }
	rep.set("lang.parse_ms", "ms", perOp(stageNS[string(pipeline.StageParse)]))
	rep.set("hier.build_ms", "ms", perOp(stageNS[string(pipeline.StageHierarchy)]))
	rep.set("ir.lower_ms", "ms", perOp(stageNS[string(pipeline.StageLower)]))
	rep.set("profile.train_ms", "ms", perOp(trainCompile+trainInterp))
	rep.set("specialize.ms", "ms", perOp(stageNS[string(pipeline.StageSpecialize)]))
	for _, cfg := range configs {
		c := cfg.String()
		if perCfg[c] > 0 {
			rep.set("opt.compile_ms."+c, "ms", compileNS[c]/1e6/perCfg[c])
			rep.set("vm.exec_ms."+c, "ms", execNS[c]/1e6/perCfg[c])
		}
	}
	// The harness span wraps each request's whole pipeline; its time
	// outside every stage is vm.New plus glue.
	rep.set("vm.compile_ms", "ms", perOp(stageNS[string(pipeline.StageHarness)]-inner))
	rep.set("vmcheck.verify_ms", "ms", perOp(stageNS[string(pipeline.StageVerify)]))
	rep.set("opt.ir_nodes", "count", irNodes/ops)
	rep.set("opt.static_versions", "count", versions/ops)
	rep.set("dispatch.dynamic", "count", dyn/ops)

	delta := func(series string) float64 { return after[series] - before[series] }
	hits, misses := delta("selspec_dispatch_pic_hits_total"), delta("selspec_dispatch_pic_misses_total")
	if hits+misses > 0 {
		rep.set("dispatch.pic_hit_ratio", "ratio", hits/(hits+misses))
	}
	if interpNS := stageNS[string(pipeline.StageInterp)]; interpNS > 0 {
		rep.set("vm.steps_per_s", "1/s", delta("selspec_interp_steps_total")/(interpNS/1e9))
	}
	rep.set("profile.arcs", "count", delta("selspec_specialize_arcs_examined_total")/ops)
	rep.set("specialize.added_specs", "count", delta("selspec_specialize_specializations_added_total")/ops)
	// The server counts every fallback, training runs' included.
	rep.set("vm.fallbacks", "count",
		after[`selspec_vm_fallback_total{reason="unsupported-node"}`]+after[`selspec_vm_fallback_total{reason="internal"}`])
	rep.set("server.non_exec_ms", "ms", median(nonExec))
	rep.set("server.shed", "count", after["selspec_server_shed_total"])
	rep.set("profdb.ingest_ms", "ms", median(ingest))
	rep.set("profdb.wal_mb", "MB", after["selspec_profdb_wal_bytes_total"]/1e6)

	var untraced, traced []float64
	for _, s := range samples {
		if s.traced {
			traced = append(traced, float64(s.latency)/1e6)
		} else {
			untraced = append(untraced, float64(s.latency)/1e6)
		}
	}
	rep.set("trace.overhead_ms", "ms", sum(traced)/float64(len(traced))-sum(untraced)/float64(len(untraced)))
	if l := sum(latNS); l > 0 {
		rep.set("trace.unaccounted_frac", "ratio", (l-stageNS[string(pipeline.StageHarness)])/l)
	}
}
