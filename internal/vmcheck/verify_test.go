package vmcheck_test

import (
	"errors"
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/programs"
	"selspec/internal/vm"
	"selspec/internal/vmcheck"
)

// TestVerifySweep is the acceptance sweep: every embedded program ×
// every optimizer configuration runs under the VM with verification on,
// which checks all procs before the run and — after it — every lazily
// compiled specialized version too.
func TestVerifySweep(t *testing.T) {
	for _, b := range programs.Registry() {
		for _, cfg := range opt.Configs() {
			p, err := driver.LoadNamed(b.Name, b.Source)
			if err != nil {
				t.Fatalf("%s: load: %v", b.Name, err)
			}
			res, err := p.RunConfig(driver.ConfigOptions{
				Config: cfg,
				Train:  b.Train,
				Test:   b.Train, // small input: the sweep is about coverage, not timing
				RunExtra: func(ro *driver.RunOptions) {
					ro.Verify = true
					ro.CaptureOutput = true
				},
			})
			if err != nil {
				t.Errorf("%s/%s: verified run failed: %v", b.Name, cfg, err)
				continue
			}
			if res.Engine != driver.EngineVM {
				t.Errorf("%s/%s: fell back to the tree tier; nothing was verified", b.Name, cfg)
			}
		}
	}
}

// buildMachine compiles src into a fresh bytecode machine. Each
// mutation test gets its own machine, so corruptions never leak.
func buildMachine(t *testing.T, src string, cfg opt.Config) *vm.Machine {
	t.Helper()
	p, err := driver.LoadNamed("mut.mc", src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	c, err := pipeline.Compile("mut.mc", p.Prog, opt.Options{Config: cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(interp.New(c))
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	return m
}

// mutSrc exercises every side table the verifier guards: call sites,
// static calls, field ops, field caches, constants, classes, closures,
// globals. The
// methods are kept polymorphic and the closure loop-bearing so the
// inliner cannot erase the sends and closure ops the mutation cases
// need to corrupt.
const mutSrc = `
var lim := 3;
class P { field n : Int := 0; }
class Q isa P { }
method bump(p@P, k) { p.n := p.n + k; if p.n > 100 { p.n := 0; } p.n; }
method bump(q@Q, k) { q.n := q.n + k + 1; if q.n > 100 { q.n := 0; } q.n; }
method pick(i) { if i < 1 { new P(); } else { new Q(); } }
method size(x) { x.n; }
method main() {
  var i := 0;
  var acc := 0;
  var fs := newarray(1);
  aput(fs, 0, fn(x) { acc := acc + x; x + i; });
  var xs := newarray(4);
  while i < lim {
    var o := pick(i);
    acc := acc + bump(o, i) + size(o);
    var f := aget(fs, 0);
    aput(xs, i, f(acc));
    i := i + 1;
  }
  var done := acc < 10;
  if done { acc := acc + 1; }
  while acc < 100 { acc := acc + 7; }
  acc + aget(xs, 0);
}
`

// findOp locates the first method or closure proc containing the given
// opcode (init thunks carry no source position, so corruption there
// would not exercise the positioned-error contract).
func findOp(t *testing.T, m *vm.Machine, op vm.Op) (*vm.Proc, int) {
	t.Helper()
	for _, pi := range m.Module().Procs() {
		if pi.Proc.Kind == vm.KindInit {
			continue
		}
		for pc, i := range pi.Proc.Code {
			if i.Op == op {
				return pi.Proc, pc
			}
		}
	}
	t.Fatalf("no compiled proc contains %s", op)
	return nil, -1
}

// TestVerifyRejectsCorruption seeds one corruption per bytecode table
// class and asserts the verifier rejects each with a positioned,
// stage-attributed error — never a panic, never silence.
func TestVerifyRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, m *vm.Machine)
		want    string // substring of the verifier message
	}{
		{"jump target oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpJump)
			p.Code[pc].A = int32(len(p.Code)) + 7
		}, "branch target"},
		{"branch target negative", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpCmpBrK)
			p.Code[pc].C = -2
		}, "branch target"},
		{"register index oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpMove)
			p.Code[pc].B = int32(p.NumRegs) + 3
		}, "register"},
		{"window oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpSend)
			p.Code[pc].C = int32(p.NumRegs)
		}, "window"},
		{"constant pool oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpConst)
			p.Code[pc].B = int32(len(p.Consts))
		}, "constant index"},
		{"field-op table oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpFieldBin)
			p.Code[pc].D = int32(len(p.FieldOps)) + 1
		}, "field op index"},
		{"field cache oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpGetFieldDyn)
			p.Code[pc].C = int32(len(p.FieldICs))
		}, "field cache index"},
		{"class table oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpNew)
			p.Code[pc].B = int32(len(p.News))
		}, "class (News) index"},
		{"closure table oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpMakeClosure)
			p.Code[pc].B = -1
		}, "closure index"},
		{"ic slot oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpSend)
			p.Sites[p.Code[pc].B] = &ir.CallSite{ID: 1 << 20}
		}, "inline-cache table"},
		{"fused accounting charge", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpCharge)
			p.Code[pc].A += 1
		}, "does not match the tree tier"},
		{"fused accounting pairing", func(t *testing.T, m *vm.Machine) {
			// Point a charge at a sibling class index: that index is
			// charged twice and the original never.
			for _, pi := range m.Module().Procs() {
				p := pi.Proc
				if len(p.News) < 2 {
					continue
				}
				for pc, i := range p.Code {
					if i.Op == vm.OpCharge {
						p.Code[pc].B = (i.B + 1) % int32(len(p.News))
						return
					}
				}
			}
			t.Fatal("no proc with two classes and a charge")
		}, "want exactly 1 and 1"},
		{"def before use", func(t *testing.T, m *vm.Machine) {
			// Read the first temporary before anything writes it.
			p, _ := findOp(t, m, vm.OpSend)
			p.Code[0] = vm.Instr{Op: vm.OpMove, A: 0, B: int32(p.NumSlots)}
		}, "not written on every path"},
		{"truthy message kind oob", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpBranchFalse)
			p.Code[pc].C = int32(vm.NumCheckMsgs())
		}, "message kind"},
		{"compare operator invalid", func(t *testing.T, m *vm.Machine) {
			p, pc := findOp(t, m, vm.OpCmpBrK)
			p.Code[pc].D = int32(ir.OpAdd)
		}, "not a comparison"},
		{"fall off end", func(t *testing.T, m *vm.Machine) {
			p, _ := findOp(t, m, vm.OpRet)
			p.Code[len(p.Code)-1] = vm.Instr{Op: vm.OpMove, A: 0, B: 0}
		}, "falls through past the end"},
		{"retnl in method", func(t *testing.T, m *vm.Machine) {
			for _, pi := range m.Module().Procs() {
				if pi.Proc.Kind != vm.KindMethod {
					continue
				}
				for pc, i := range pi.Proc.Code {
					if i.Op == vm.OpRet {
						pi.Proc.Code[pc].Op = vm.OpRetNL
						return
					}
				}
			}
			t.Fatal("no method proc with a return")
		}, "non-local return in a method"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := buildMachine(t, mutSrc, opt.CHA)
			if err := vmcheck.Verify(m); err != nil {
				t.Fatalf("pristine machine failed verification: %v", err)
			}
			tc.corrupt(t, m)
			err := pipeline.VerifyMachine("mut.mc", opt.CHA.String(), m)
			if err == nil {
				t.Fatal("corruption was not rejected")
			}
			var se *pipeline.StageError
			if !errors.As(err, &se) {
				t.Fatalf("error is not stage-attributed: %T %v", err, err)
			}
			if se.Stage != pipeline.StageVerify {
				t.Errorf("stage = %s, want %s", se.Stage, pipeline.StageVerify)
			}
			var ve *vmcheck.Error
			if !errors.As(err, &ve) {
				t.Fatalf("error chain has no *vmcheck.Error: %v", err)
			}
			if ve.Pos.Line <= 0 {
				t.Errorf("verifier error is unpositioned: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestVerifyCoversAllProcKinds makes sure the verifier walks closure
// and initializer procs, not just method versions.
func TestVerifyCoversAllProcKinds(t *testing.T) {
	m := buildMachine(t, mutSrc, opt.Base)
	kinds := map[vm.ProcKind]bool{}
	for _, pi := range m.Module().Procs() {
		kinds[pi.Proc.Kind] = true
	}
	for _, k := range []vm.ProcKind{vm.KindMethod, vm.KindClosure, vm.KindInit} {
		if !kinds[k] {
			t.Errorf("mutation program compiled no proc of kind %d", k)
		}
	}
	// Corrupt a closure proc: the error must name it.
	var closureName string
	for _, pi := range m.Module().Procs() {
		if pi.Proc.Kind == vm.KindClosure {
			closureName = pi.Proc.Name
			p := pi.Proc
			p.Code[len(p.Code)-1] = vm.Instr{Op: vm.OpRet, A: int32(p.NumRegs) + 9}
			break
		}
	}
	err := vmcheck.Verify(m)
	if err == nil {
		t.Fatal("corrupted closure proc passed verification")
	}
	var ve *vmcheck.Error
	if !errors.As(err, &ve) || ve.Proc != closureName {
		t.Errorf("error does not name the closure proc %q: %v", closureName, err)
	}
}
