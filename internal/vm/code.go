// Package vm is the bytecode execution tier: a compiler from the
// optimized/specialized tree IR (internal/ir, post internal/opt) to a
// compact register bytecode, plus a dispatch-loop machine that executes
// it. It is the Futamura-style move of partially evaluating the tree
// interpreter over the program once — IR structure, operand positions,
// constant operands, and comparison-then-branch shapes are resolved at
// compile time — so the hot path executes a flat instruction array
// instead of re-walking an interface-typed tree every step.
//
// The VM is an execution substrate only. Everything observable —
// dynamic dispatch, version selection, inline caches, profiling,
// counters, the cycle cost model, resource guards — runs through the
// *interp.Interp the machine wraps, via the exported seams in
// internal/interp/engine.go. That makes the tree interpreter a true
// differential-testing oracle: for every program and configuration both
// tiers must produce byte-identical output, the same final value, the
// same error, and identical counter totals, and the tests enforce it.
package vm

import (
	"fmt"
	"strings"

	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

// Op is a bytecode opcode.
type Op uint8

// The instruction set. Operand registers index the executing proc's
// register window: frame slots (params + locals) occupy registers
// [0, NumSlots), compiler temporaries sit above. Superinstructions
// (OpCmpBr, OpBinK, and the call megaops) fuse the dominant tree
// shapes; each one's counter/cycle effects are documented to be
// identical to the unfused tree evaluation.
const (
	// OpConst: regs[A] = Consts[B].
	OpConst Op = iota
	// OpMove: regs[A] = regs[B].
	OpMove
	// OpJump: pc = A.
	OpJump
	// OpBranchFalse: truthy-check regs[A] (failing with the message
	// selected by C — if/while/&&/||), charge CostBin, jump to B when
	// false. This is the shared cond shape of If, While, And and Or.
	OpBranchFalse
	// OpCheckBool: truthy-check regs[A] with message C; no charge, no
	// branch (the right operand of && / || is checked but not charged).
	OpCheckBool
	// OpCmpBr is the fused comparison-branch superinstruction for
	// If/While conditions that are integer/string comparisons: counts
	// one PrimOp, charges CostBin for the comparison and CostBin for
	// the branch (exactly the unfused Bin + If accounting), and jumps
	// to C when regs[A] <op D> regs[B] is false.
	OpCmpBr
	// OpCmpBrK is OpCmpBr with a constant right operand taken from
	// Consts[B] — the `x <op> literal` condition shape — eliminating the
	// per-evaluation constant load. Accounting is identical to OpCmpBr.
	OpCmpBrK
	// OpStep charges one interpreter step (loop heads).
	OpStep
	// OpCharge adds A to the cycle counter (hoisted constant costs,
	// e.g. New's base+fields charge which precedes argument evaluation).
	// B is ignored by the machine; for a New charge it records the News
	// index so the verifier can pair each OpNew with its charge.
	OpCharge
	// OpGetUp: regs[A] = slot C of the frame B static-chain hops out
	// (B >= 1; depth-0 locals are registers and compile to no code).
	OpGetUp
	// OpSetUp: slot C of the frame B hops out = regs[A].
	OpSetUp
	// OpGetGlobal: regs[A] = global B, failing (with name Names[C]) if
	// its initializer has not run.
	OpGetGlobal
	// OpSetGlobal: global B = regs[A], marking it initialized.
	OpSetGlobal
	// OpGetField: regs[A] = field C of object regs[B] (statically
	// resolved index; charges CostFieldCached). Names[D] names the
	// field in non-object errors.
	OpGetField
	// OpGetFieldDyn: like OpGetField but the index is resolved from
	// Names[D] at run time (charges CostFieldLookup), through the
	// monomorphic cache FieldICs[C].
	OpGetFieldDyn
	// OpSetField: field C of object regs[A] = regs[B] (declared-type
	// checked); the value stays in regs[B] as the expression result.
	OpSetField
	// OpSetFieldDyn: OpSetField with run-time index resolution, cached
	// like OpGetFieldDyn's in FieldICs[C].
	OpSetFieldDyn
	// OpNew: regs[A] = new Classes[B] with the C..C+D-1 register window
	// as leading field values; remaining fields run their compiled
	// initializer thunks; every field is declared-type checked. The
	// CostNewBase+fields charge is a separate OpCharge emitted before
	// argument evaluation, as the tree tier charges it.
	OpNew
	// OpMakeClosure: regs[A] = closure over Closures[B] capturing the
	// current frame and activation; charges CostClosureMake.
	OpMakeClosure
	// OpCheckClosure: fail (at Poss[C]) unless regs[A] is a closure of
	// arity B. Emitted before argument evaluation, matching the tree
	// tier's check-then-evaluate order.
	OpCheckClosure
	// OpCallClosure: regs[A] = call closure regs[B] with the argument
	// window at C (arity from the closure; OpCheckClosure already
	// validated it); call position Poss[D]. Counts/charges/steps via
	// the shared NoteClosureCall seam, then enters one depth level.
	OpCallClosure
	// OpSend is the dynamic-dispatch megaop: regs[A] = send through
	// call site Sites[B] with the argument window C..C+D-1. The site
	// index is the inline-cache slot: it addresses the per-site PIC
	// directly (no hashing, no tree walk), and dispatch + version
	// selection run through the shared DispatchSendClasses seam.
	OpSend
	// OpStaticCall: regs[A] = invoke Statics[B].Target with window
	// C..C+D-1 (statically bound after specialization).
	OpStaticCall
	// OpVSelect: regs[A] = invoke the run-time-selected version of
	// VSels[B].Method with window C..C+D-1.
	OpVSelect
	// OpPrim: regs[A] = primitive B applied to window C..C+D-1.
	OpPrim
	// OpBin: regs[A] = regs[B] <op D> regs[C], with inline int fast
	// paths and the shared EvalBin fallback.
	OpBin
	// OpBinK is the constant-right-operand superinstruction:
	// regs[A] = regs[B] <op D> Consts[C]. Same accounting as OpBin.
	OpBinK
	// OpNot: regs[A] = !regs[B] (boolean-checked).
	OpNot
	// OpNeg: regs[A] = -regs[B] (integer-checked).
	OpNeg
	// OpRet returns regs[A] from the current proc. Emitted for method
	// bodies' implicit result and for ir.Return nodes lexically inside
	// a method body, where the tree tier's returnSignal is caught by
	// the method's own activation — a plain return is equivalent.
	OpRet
	// OpRetNL is a (possibly non-local) return of regs[A] from a
	// closure or initializer body: it fails if the target activation
	// already exited, otherwise unwinds to it.
	OpRetNL
	// OpFieldBin fuses the `obj.field <op> x` shape — the dominant
	// predicate-method body (`i.src1 == r`, `a.dest == b.dest`) — into
	// one dispatch: regs[A] = (field of object regs[B]) <op> regs[C],
	// with slot, field name and operator in FieldOps[D]. Emitted only
	// when the right operand is effect-free (a depth-0 local), so the
	// observable order — object eval, CostFieldCached, PrimOp+CostBin —
	// is exactly the unfused OpGetField + OpBin sequence.
	OpFieldBin
	// OpFieldBinK is OpFieldBin with a constant right operand from
	// Consts[C]: the `obj.field <op> literal` shape (`i.dest >= 0`).
	OpFieldBinK
	// OpBinField is the mirrored fusion, field on the right:
	// regs[A] = regs[C] <op> (field of object regs[B]) with FieldOps[D].
	// The left operand is compiled first (any shape), then the field's
	// object — the tree tier's exact evaluation order for Bin.
	OpBinField
	// OpAGet is the window-free array read: regs[A] = regs[B][regs[C]],
	// with OpPrim's exact aget fast path and the shared CallPrim seam
	// (hence identical errors and charges) on any failure shape. Fusing
	// skips the argument-window moves and the prim dispatch entirely.
	OpAGet
	// OpAPut is the window-free array write:
	// regs[A] = (regs[B][regs[C]] = regs[D]).
	OpAPut
	// OpCmpBrField fuses the dominant loop-bound shape `x <op> obj.field`
	// (`while i < b.n`) into the compare-branch: read the field of object
	// regs[B] per FieldOps[D] (charging CostFieldCached), compare with
	// regs[A] (one PrimOp + CostBin), charge the branch's CostBin, and
	// jump to C when false — OpGetField + OpCmpBr accounting exactly.
	OpCmpBrField
)

var opNames = [...]string{
	"const", "move", "jump", "brfalse", "checkbool", "cmpbr", "cmpbrk", "step",
	"charge", "getup", "setup", "getglobal", "setglobal", "getfield",
	"getfielddyn", "setfield", "setfielddyn", "new", "makeclosure",
	"checkclosure", "callclosure", "send", "staticcall", "vselect",
	"prim", "bin", "bink", "not", "neg", "ret", "retnl",
	"fieldbin", "fieldbink", "binfield", "aget", "aput", "cmpbrfield",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one fixed-width bytecode instruction.
type Instr struct {
	Op         Op
	A, B, C, D int32
}

// Truthy-check message kinds (operand C of OpBranchFalse/OpCheckBool),
// matching the tree interpreter's error text per construct.
const (
	msgIf = iota
	msgWhile
	msgAnd
	msgOr
)

var checkMsgs = [...]string{
	"if condition is not a boolean: %s",
	"while condition is not a boolean: %s",
	"'&&' on non-boolean %s",
	"'||' on non-boolean %s",
}

// ProcKind distinguishes how returns behave in a compiled body.
type ProcKind uint8

// Proc kinds.
const (
	// KindMethod is a compiled method version: ir.Return compiles to a
	// direct OpRet (the activation being returned to is this one).
	KindMethod ProcKind = iota
	// KindClosure is a compiled closure body: ir.Return compiles to
	// OpRetNL targeting the lexically enclosing method activation.
	KindClosure
	// KindInit is a global or field initializer thunk: ir.Return has no
	// enclosing activation and always fails, as in the tree tier.
	KindInit
)

// StaticRef is the target of one OpStaticCall. proc caches the
// target's compiled proc after the first invocation (the binding is
// static, so the cache never invalidates).
type StaticRef struct {
	Site   *ir.CallSite
	Target *ir.Version
	proc   *Proc
}

// NewRef is the class operand of one OpNew, with the field-initializer
// thunk procs resolved at compile time (aligned with Class.Fields; nil
// entries for fields without initializers).
type NewRef struct {
	Class *hier.Class
	inits []*Proc
}

// FieldOpRef is the operand pool entry of one fused field/binop
// superinstruction (OpFieldBin, OpFieldBinK, OpBinField): the
// statically-resolved field slot, the field name (Names index, for the
// non-object error text) and the binary operator.
type FieldOpRef struct {
	Slot int32
	Name int32
	Op   ir.BinOp
}

// FieldIC is the monomorphic inline cache of one OpGetFieldDyn or
// OpSetFieldDyn: the receiver class it last resolved the field name
// for, and the slot the name has there. A class's field layout is
// fixed, so a hit skips the by-name search; the instruction still
// charges CostFieldLookup, as the tree tier does.
type FieldIC struct {
	class *hier.Class
	slot  int
}

// VSelRef is the method of one OpVSelect.
type VSelRef struct {
	Site   *ir.CallSite
	Method *hier.Method
}

// Proc is one compiled body: a register window layout plus flat code
// and its operand pools.
type Proc struct {
	Name     string
	Kind     ProcKind
	NumSlots int // frame slots: params + locals (registers [0, NumSlots))
	NumRegs  int // slots + compiler temporaries
	Code     []Instr

	Consts   []interp.Value
	Names    []string
	Sites    []*ir.CallSite
	Statics  []StaticRef
	VSels    []VSelRef
	FieldOps []FieldOpRef
	FieldICs []FieldIC
	News     []NewRef
	Closures []*ir.ClosureCode
	Poss     []lang.Pos

	// NeedsFrame: the body creates closures, so its slots must live in
	// a heap frame (captured via the static chain) instead of a window
	// of the machine's contiguous register stack.
	NeedsFrame bool

	// noted: this version is already in the interpreter's invoked set,
	// so later entries skip the set lookup (see Interp.NoteInvokeKnown).
	noted bool
}

// Disasm renders the proc's code for debugging and the DESIGN.md
// instruction-set examples.
func (p *Proc) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc %s (%s) slots=%d regs=%d frame=%v\n",
		p.Name, [...]string{"method", "closure", "init"}[p.Kind], p.NumSlots, p.NumRegs, p.NeedsFrame)
	for pc, i := range p.Code {
		fmt.Fprintf(&b, "  %4d  %-12s", pc, i.Op)
		switch i.Op {
		case OpConst:
			fmt.Fprintf(&b, "r%d <- %s", i.A, p.Consts[i.B])
		case OpMove:
			fmt.Fprintf(&b, "r%d <- r%d", i.A, i.B)
		case OpJump:
			fmt.Fprintf(&b, "-> %d", i.A)
		case OpBranchFalse:
			fmt.Fprintf(&b, "r%d -> %d (%s)", i.A, i.B, [...]string{"if", "while", "&&", "||"}[i.C])
		case OpCmpBr:
			fmt.Fprintf(&b, "r%d %s r%d else -> %d", i.A, ir.BinOp(i.D), i.B, i.C)
		case OpCmpBrK:
			fmt.Fprintf(&b, "r%d %s %s else -> %d", i.A, ir.BinOp(i.D), p.Consts[i.B], i.C)
		case OpBin:
			fmt.Fprintf(&b, "r%d <- r%d %s r%d", i.A, i.B, ir.BinOp(i.D), i.C)
		case OpBinK:
			fmt.Fprintf(&b, "r%d <- r%d %s %s", i.A, i.B, ir.BinOp(i.D), p.Consts[i.C])
		case OpFieldBin:
			f := p.FieldOps[i.D]
			fmt.Fprintf(&b, "r%d <- r%d.%s %s r%d", i.A, i.B, p.Names[f.Name], f.Op, i.C)
		case OpFieldBinK:
			f := p.FieldOps[i.D]
			fmt.Fprintf(&b, "r%d <- r%d.%s %s %s", i.A, i.B, p.Names[f.Name], f.Op, p.Consts[i.C])
		case OpBinField:
			f := p.FieldOps[i.D]
			fmt.Fprintf(&b, "r%d <- r%d %s r%d.%s", i.A, i.C, f.Op, i.B, p.Names[f.Name])
		case OpCmpBrField:
			f := p.FieldOps[i.D]
			fmt.Fprintf(&b, "r%d %s r%d.%s else -> %d", i.A, f.Op, i.B, p.Names[f.Name], i.C)
		case OpSend:
			fmt.Fprintf(&b, "r%d <- %s args r%d..%d", i.A, p.Sites[i.B].GF.Key(), i.C, i.C+i.D-1)
		case OpStaticCall:
			fmt.Fprintf(&b, "r%d <- %s args r%d..%d", i.A, p.Statics[i.B].Target, i.C, i.C+i.D-1)
		case OpVSelect:
			fmt.Fprintf(&b, "r%d <- select %s args r%d..%d", i.A, p.VSels[i.B].Method.Name(), i.C, i.C+i.D-1)
		case OpPrim, OpNew, OpCallClosure:
			fmt.Fprintf(&b, "r%d <- (%d) args/win r%d+%d", i.A, i.B, i.C, i.D)
		default:
			fmt.Fprintf(&b, "A=%d B=%d C=%d D=%d", i.A, i.B, i.C, i.D)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
