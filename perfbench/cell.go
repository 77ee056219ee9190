package main

import (
	"fmt"
	"time"

	"selspec/internal/driver"
	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

var configs = []opt.Config{opt.Base, opt.Cust, opt.CustMM, opt.CHA, opt.Selective}

// outcome is what a caller observes of one run: the value, the
// captured output, or the error text.
type outcome struct {
	Value, Output, Err string
}

func (o outcome) String() string {
	if o.Err != "" {
		return "error " + o.Err
	}
	return fmt.Sprintf("value %s output %dB", o.Value, len(o.Output))
}

// input is one program with its training and test inputs and the
// reference outcome on the test input.
type input struct {
	programs.Benchmark
	generated bool
	ref       outcome
}

// reference runs b on the tree engine under Base: the oracle every
// cell and request is checked against, independent of the VM, the
// optimizing configurations and the server.
func reference(b programs.Benchmark) (outcome, error) {
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		return outcome{}, err
	}
	c, err := pipeline.Compile(b.Name, p.Prog, opt.Options{Config: opt.Base})
	if err != nil {
		return outcome{}, err
	}
	res, err := driver.Execute(c, driver.RunOptions{Engine: driver.EngineTree, Overrides: b.Test, CaptureOutput: true})
	if err != nil {
		return outcome{Err: err.Error()}, nil
	}
	return outcome{Value: res.Value, Output: res.Output}, nil
}

func newInput(b programs.Benchmark, generated bool) (*input, error) {
	ref, err := reference(b)
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", b.Name, err)
	}
	return &input{Benchmark: b, generated: generated, ref: ref}, nil
}

// counts are the deterministic facts of one cell: they must repeat
// exactly on every pass.
type counts struct {
	Steps, Dispatches   uint64
	IRNodes, OptIRNodes int
	StaticVersions      int
	LazyCompiles, Added int
	Arcs                int
	PICHits, PICMisses  uint64
}

// cellResult is one cold source-to-result run of a program under a
// configuration.
type cellResult struct {
	out      outcome
	fellBack bool
	wall     time.Duration
	exec     time.Duration
	counts   counts
}

// runCell takes in's source text to a result under cfg, calling each
// layer's public entry point in turn and ending in driver.Execute on
// the VM engine with verification on.
func runCell(t *tracer, op int, in *input, cfg opt.Config) cellResult {
	start := time.Now()
	root := t.begin(op, "cell", -1)
	r := cellBody(t, op, root, in, cfg)
	t.end(root)
	r.wall = time.Since(start)
	return r
}

func cellBody(t *tracer, op, root int, in *input, cfg opt.Config) (r cellResult) {
	fail := func(err error) cellResult {
		r.out = outcome{Err: err.Error()}
		return r
	}
	label := in.Name
	parsed, err := call(t, op, root, "lang.parse", func() (*lang.Program, error) { return pipeline.Parse(label, in.Source) })
	if err != nil {
		return fail(err)
	}
	h, err := call(t, op, root, "hier.build", func() (*hier.Hierarchy, error) { return pipeline.Build(label, parsed) })
	if err != nil {
		return fail(err)
	}
	prog, err := call(t, op, root, "ir.lower", func() (*ir.Program, error) { return pipeline.Lower(label, parsed, h) })
	if err != nil {
		return fail(err)
	}
	r.counts.IRNodes = irNodes(prog)

	oo := opt.Options{Config: cfg, Lazy: cfg == opt.CustMM}
	if cfg == opt.Selective {
		p := &driver.Pipeline{Prog: prog, Label: label}
		cg, err := call(t, op, root, "profile.train", func() (*profile.CallGraph, error) {
			return p.CollectProfile(driver.RunOptions{Overrides: in.Train, Mechanism: interp.MechPIC})
		})
		if err != nil {
			return fail(fmt.Errorf("profile run: %w", err))
		}
		r.counts.Arcs = cg.Len()
		res, err := call(t, op, root, "specialize", func() (*specialize.Result, error) {
			return pipeline.Specialize(label, prog, cg, specialize.Params{Threshold: specialize.DefaultThreshold})
		})
		if err != nil {
			return fail(err)
		}
		r.counts.Added = res.Stats.AddedSpecs
		oo.Specializations = res.Specializations
	}
	c, err := call(t, op, root, "opt.compile."+cfg.String(), func() (*opt.Compiled, error) { return pipeline.Compile(label, prog, oo) })
	if err != nil {
		return fail(err)
	}

	// Inside driver.Execute, the pipeline's stage observer times the
	// verifier and the run; the rest of the span is vm.New and glue.
	disarm := t.armStages()
	ex := t.begin(op, "driver.execute", root)
	res, err := driver.Execute(c, driver.RunOptions{Engine: driver.EngineVM, Verify: true, Overrides: in.Test, CaptureOutput: true})
	t.end(ex)
	t.adopt(op, ex, disarm(), map[string]string{
		string(pipeline.StageVerify): "vmcheck.verify",
		string(pipeline.StageInterp): "vm.exec." + cfg.String(),
	})
	if err != nil {
		return fail(err)
	}
	r.out = outcome{Value: res.Value, Output: res.Output}
	r.fellBack = res.Engine != driver.EngineVM
	r.exec = res.Wall
	r.counts.Steps = res.Steps
	r.counts.Dispatches = res.Counters.DynamicDispatches()
	r.counts.PICHits, r.counts.PICMisses = res.Counters.PICHits, res.Counters.PICMisses
	r.counts.OptIRNodes = res.Stats.IRNodes
	r.counts.StaticVersions = res.Stats.Versions
	r.counts.LazyCompiles = res.Stats.LazyCompiles
	return r
}

// irNodes is the size of the lowered program: every method body,
// global initializer and field initializer.
func irNodes(p *ir.Program) int {
	n := 0
	for _, b := range p.Bodies {
		n += ir.Size(b.Code)
	}
	for _, g := range p.Globals {
		if g.Init != nil {
			n += ir.Size(g.Init)
		}
	}
	for _, inits := range p.FieldInits {
		for _, in := range inits {
			if in != nil {
				n += ir.Size(in)
			}
		}
	}
	return n
}

// verdict classifies one operation. A failed operation is unexpected
// unless it is the known defect the benchmark reports without treating
// it as a broken check: Cust returning a different value than Base on
// generated programs (a miscompile in internal/opt).
type verdict struct {
	failed     bool
	unexpected bool
	reason     string
}

func check(in *input, cfg opt.Config, got outcome, fellBack bool) verdict {
	switch {
	case fellBack:
		return verdict{failed: true, unexpected: true, reason: "vm fell back to the tree engine"}
	case got != in.ref:
		reason := fmt.Sprintf("got %s, want %s", got, in.ref)
		if cfg == opt.Cust && in.generated && got.Err == "" && in.ref.Err == "" {
			return verdict{failed: true, reason: "known Cust miscompile: " + reason}
		}
		return verdict{failed: true, unexpected: true, reason: reason}
	}
	return verdict{}
}
