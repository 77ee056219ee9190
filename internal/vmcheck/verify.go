package vmcheck

import (
	"fmt"

	"selspec/internal/bits"
	"selspec/internal/interp"
	"selspec/internal/lang"
	"selspec/internal/vm"
)

// Error is one verifier finding: the proc, the offending pc, and the
// source position of the declaration the proc was compiled from (so the
// pipeline's stage-error machinery can render it positioned).
type Error struct {
	Proc string
	PC   int
	Pos  lang.Pos
	Msg  string
}

func (e *Error) Error() string {
	if e.PC >= 0 {
		return fmt.Sprintf("bytecode verification failed: proc %s pc %d: %s", e.Proc, e.PC, e.Msg)
	}
	return fmt.Sprintf("bytecode verification failed: proc %s: %s", e.Proc, e.Msg)
}

// Position implements the pipeline's positioned-error interface.
func (e *Error) Position() lang.Pos { return e.Pos }

// procPos resolves the source position a proc was compiled from: the
// method declaration for versions, the owning method's declaration for
// closures, and the zero position for initializer thunks.
func procPos(pi vm.ProcInfo) lang.Pos {
	switch {
	case pi.Version != nil && pi.Version.Method.Decl != nil:
		return pi.Version.Method.Decl.Pos
	case pi.Owner != nil && pi.Owner.Decl != nil:
		return pi.Owner.Decl.Pos
	}
	return lang.Pos{}
}

// Verify checks every proc the machine has compiled so far against the
// full invariant catalogue:
//
//   - control flow: jump/branch targets in [0, len(code)); code does
//     not fall off the end; no empty procs
//   - registers: every scalar operand and argument window within
//     [0, NumRegs); NumSlots ≤ NumRegs
//   - pools and side tables: constant, name, site, static, version-
//     selector, field-op, class, closure, and position indices in
//     bounds; field-op entries with a resolved slot and pooled name;
//     IC slots (call-site IDs) within the machine's inline-cache table
//   - kind discipline: static-chain ops only in closure procs; no
//     direct OpRet-adjacent OpRetNL in method procs; OpMakeClosure
//     implies NeedsFrame
//   - operand encodings: binop/compare/prim operands in their enums;
//     truthy-check message kinds in range
//   - accounting: each News entry is referenced by exactly one OpNew
//     and one OpCharge carrying exactly the tree tier's construction
//     cost for that class
//   - dataflow: every register read is preceded by a write on every
//     path from entry (frame slots count as written at entry)
//
// The first violation is returned as an *Error; nil means every proc
// verified. Run it after compilation (eager configs) and again after a
// run (lazy configs compile procs mid-run).
func Verify(m *vm.Machine) error {
	mod := m.Module()
	numSites := len(mod.Compiled().Prog.Sites)
	numGlobals := len(mod.Compiled().Prog.Globals)
	for _, pi := range mod.Procs() {
		if err := verifyProc(pi, numSites, numGlobals); err != nil {
			return err
		}
	}
	return nil
}

// verifyProc runs the catalogue on one proc.
func verifyProc(pi vm.ProcInfo, numSites, numGlobals int) error {
	p := pi.Proc
	pos := procPos(pi)
	fail := func(pc int, format string, args ...any) error {
		return &Error{Proc: p.Name, PC: pc, Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}

	if len(p.Code) == 0 {
		return fail(-1, "empty code stream")
	}
	if p.NumSlots < 0 || p.NumRegs < p.NumSlots {
		return fail(-1, "register layout invalid: slots=%d regs=%d", p.NumSlots, p.NumRegs)
	}

	n := int32(len(p.Code))
	reg := func(pc int, role string, r int32) error {
		if r < 0 || r >= int32(p.NumRegs) {
			return fail(pc, "%s register r%d out of range [0, %d)", role, r, p.NumRegs)
		}
		return nil
	}
	pool := func(pc int, what string, idx int32, size int) error {
		if idx < 0 || int(idx) >= size {
			return fail(pc, "%s index %d out of range [0, %d)", what, idx, size)
		}
		return nil
	}
	window := func(pc int, base, count int32) error {
		if count < 0 || base < 0 || base+count > int32(p.NumRegs) {
			return fail(pc, "argument window r%d..r%d out of range [0, %d)", base, base+count-1, p.NumRegs)
		}
		return nil
	}
	branch := func(pc int, t int32) error {
		if t < 0 || t >= n {
			return fail(pc, "branch target %d out of range [0, %d)", t, n)
		}
		return nil
	}

	// newCharges/newUses count, per News index, the OpCharge and OpNew
	// instructions referencing it — the accounting-equality check.
	newCharges := make([]int, len(p.News))
	newUses := make([]int, len(p.News))
	sawMakeClosure := false

	for pc, i := range p.Code {
		// Generic operand validation from the decoded shape.
		info := decode(p, pc)
		var regErr error
		check := func(role string) func(int32) {
			return func(r int32) {
				if regErr == nil {
					regErr = reg(pc, role, r)
				}
			}
		}
		info.reads.each(check("source"))
		info.writes.each(check("destination"))
		if regErr != nil {
			return regErr
		}
		if info.hasBranch {
			if err := branch(pc, info.branch); err != nil {
				return err
			}
		}
		if info.winLen > 0 {
			if err := window(pc, info.winBase, info.winLen); err != nil {
				return err
			}
		}
		if info.winLen == winUnknown {
			// Width is dynamic (OpCallClosure's arity comes from the
			// callee, after OpCheckClosure pinned it to the compiled
			// argument count). A zero-argument call legally places its
			// empty window one past the last register, so the bound is
			// [0, NumRegs] inclusive rather than the strict register
			// range.
			if info.winBase < 0 || info.winBase > int32(p.NumRegs) {
				return fail(pc, "dynamic window base r%d out of range [0, %d]",
					info.winBase, p.NumRegs)
			}
		}

		// Opcode-specific operand encodings and side tables.
		switch i.Op {
		case vm.OpConst:
			if err := pool(pc, "constant", i.B, len(p.Consts)); err != nil {
				return err
			}

		case vm.OpBranchFalse, vm.OpCheckBool:
			if i.C < 0 || int(i.C) >= vm.NumCheckMsgs() {
				return fail(pc, "truthy-check message kind %d out of range [0, %d)", i.C, vm.NumCheckMsgs())
			}

		case vm.OpCmpBr:
			if !compareBinOp(i.D) {
				return fail(pc, "compare-branch operator %d is not a comparison", i.D)
			}

		case vm.OpCmpBrK:
			if err := pool(pc, "constant", i.B, len(p.Consts)); err != nil {
				return err
			}
			if !compareBinOp(i.D) {
				return fail(pc, "compare-branch operator %d is not a comparison", i.D)
			}

		case vm.OpCmpBrField:
			if err := verifyFieldOp(p, pc, i.D, fail, pool); err != nil {
				return err
			}
			if f := p.FieldOps[i.D]; !compareBinOp(int32(f.Op)) {
				return fail(pc, "compare-branch field operator %d is not a comparison", f.Op)
			}

		case vm.OpCharge:
			if i.A < 0 {
				return fail(pc, "negative cycle charge %d", i.A)
			}
			if err := pool(pc, "class (News)", i.B, len(p.News)); err != nil {
				return err
			}
			newCharges[i.B]++
			cls := p.News[i.B].Class
			want := int32(interp.CostNewBase + len(cls.Fields))
			if i.A != want {
				return fail(pc, "construction charge %d for class %s does not match the tree tier's %d",
					i.A, cls.Name, want)
			}

		case vm.OpGetUp, vm.OpSetUp:
			if p.Kind != vm.KindClosure {
				return fail(pc, "%s outside a closure proc (no static chain at run time)", i.Op)
			}
			if i.B < 1 {
				return fail(pc, "static-chain hop count %d < 1", i.B)
			}
			if i.C < 0 {
				return fail(pc, "negative captured-frame slot %d", i.C)
			}

		case vm.OpGetGlobal:
			if err := pool(pc, "global", i.B, numGlobals); err != nil {
				return err
			}
			if err := pool(pc, "name", i.C, len(p.Names)); err != nil {
				return err
			}

		case vm.OpSetGlobal:
			if err := pool(pc, "global", i.B, numGlobals); err != nil {
				return err
			}

		case vm.OpGetField, vm.OpSetField:
			if i.C < 0 {
				return fail(pc, "negative field slot %d", i.C)
			}
			if err := pool(pc, "name", i.D, len(p.Names)); err != nil {
				return err
			}

		case vm.OpGetFieldDyn, vm.OpSetFieldDyn:
			if err := pool(pc, "name", i.D, len(p.Names)); err != nil {
				return err
			}
			if err := pool(pc, "field cache", i.C, len(p.FieldICs)); err != nil {
				return err
			}

		case vm.OpNew:
			if err := pool(pc, "class (News)", i.B, len(p.News)); err != nil {
				return err
			}
			newUses[i.B]++
			if cls := p.News[i.B].Class; int(i.D) > len(cls.Fields) {
				return fail(pc, "construction passes %d leading fields but class %s has %d", i.D, cls.Name, len(cls.Fields))
			}

		case vm.OpMakeClosure:
			sawMakeClosure = true
			if err := pool(pc, "closure", i.B, len(p.Closures)); err != nil {
				return err
			}
			if !p.NeedsFrame {
				return fail(pc, "proc creates a closure but NeedsFrame is unset")
			}

		case vm.OpCheckClosure:
			if i.B < 0 {
				return fail(pc, "negative closure arity %d", i.B)
			}
			if err := pool(pc, "position", i.C, len(p.Poss)); err != nil {
				return err
			}

		case vm.OpCallClosure:
			if err := pool(pc, "position", i.D, len(p.Poss)); err != nil {
				return err
			}

		case vm.OpSend:
			if err := pool(pc, "call site", i.B, len(p.Sites)); err != nil {
				return err
			}
			if id := p.Sites[i.B].ID; id < 0 || id >= numSites {
				return fail(pc, "call site ID %d outside the inline-cache table [0, %d)", id, numSites)
			}

		case vm.OpStaticCall:
			if err := pool(pc, "static target", i.B, len(p.Statics)); err != nil {
				return err
			}

		case vm.OpVSelect:
			if err := pool(pc, "version selector", i.B, len(p.VSels)); err != nil {
				return err
			}
			if id := p.VSels[i.B].Site.ID; id < 0 || id >= numSites {
				return fail(pc, "version-select site ID %d outside the inline-cache table [0, %d)", id, numSites)
			}

		case vm.OpPrim:
			if !validPrim(i.B) {
				return fail(pc, "primitive %d is not defined", i.B)
			}

		case vm.OpBin:
			if !validBinOp(i.D) {
				return fail(pc, "binary operator %d is not defined", i.D)
			}

		case vm.OpBinK:
			if err := pool(pc, "constant", i.C, len(p.Consts)); err != nil {
				return err
			}
			if !validBinOp(i.D) {
				return fail(pc, "binary operator %d is not defined", i.D)
			}

		case vm.OpFieldBin, vm.OpBinField:
			if err := verifyFieldOp(p, pc, i.D, fail, pool); err != nil {
				return err
			}

		case vm.OpFieldBinK:
			if err := verifyFieldOp(p, pc, i.D, fail, pool); err != nil {
				return err
			}
			if err := pool(pc, "constant", i.C, len(p.Consts)); err != nil {
				return err
			}

		case vm.OpRetNL:
			if p.Kind == vm.KindMethod {
				return fail(pc, "non-local return in a method proc (returns there are direct)")
			}

		case vm.OpMove, vm.OpJump, vm.OpStep, vm.OpAGet, vm.OpAPut,
			vm.OpNot, vm.OpNeg, vm.OpRet:
			// Fully covered by the generic operand validation above.

		default:
			return fail(pc, "unknown opcode %d", int(i.Op))
		}

		// Execution must never fall off the end of the stream.
		if pc == len(p.Code)-1 && info.fallsThrough {
			return fail(pc, "%s falls through past the end of the code stream", i.Op)
		}
	}

	if p.NeedsFrame && !sawMakeClosure {
		return fail(-1, "NeedsFrame set but no closure is created")
	}
	// Superinstruction/construction accounting equality: every class
	// entry is constructed exactly once and charged exactly once.
	for idx := range p.News {
		if newUses[idx] != 1 || newCharges[idx] != 1 {
			return fail(-1, "News entry %d (%s): %d constructions, %d charges; want exactly 1 and 1",
				idx, p.News[idx].Class.Name, newUses[idx], newCharges[idx])
		}
	}

	// Dataflow: def-before-use on every path. Operand validity is
	// established above, so the CFG is well-formed here.
	g := buildCFG(p)
	defs := g.mustDefined()
	reach := g.reachable()
	for _, b := range g.blocks {
		if !reach[b.id] {
			// Unreachable code cannot read anything at run time; the
			// diagnostics layer reports it separately.
			continue
		}
		var derr error
		defs.definedAt(b.id, func(pc int, defined *bits.Set) {
			if derr != nil {
				return
			}
			in := g.info[pc]
			in.reads.each(func(r int32) {
				if derr == nil && !defined.Has(int(r)) {
					derr = fail(pc, "%s reads r%d, which is not written on every path from entry", p.Code[pc].Op, r)
				}
			})
			if in.winLen > 0 {
				for r := in.winBase; derr == nil && r < in.winBase+in.winLen; r++ {
					if !defined.Has(int(r)) {
						derr = fail(pc, "%s reads window register r%d, which is not written on every path from entry", p.Code[pc].Op, r)
					}
				}
			}
			// winUnknown (OpCallClosure): the window width is dynamic, so
			// no per-register requirement can be imposed statically.
		})
		if derr != nil {
			return derr
		}
	}
	return nil
}

// verifyFieldOp bounds-checks one FieldOps side-table reference and the
// entry it names.
func verifyFieldOp(p *vm.Proc, pc int, idx int32,
	fail func(int, string, ...any) error,
	pool func(int, string, int32, int) error) error {
	if err := pool(pc, "field op", idx, len(p.FieldOps)); err != nil {
		return err
	}
	f := p.FieldOps[idx]
	if f.Slot < 0 {
		return fail(pc, "field op %d has unresolved slot %d", idx, f.Slot)
	}
	if err := pool(pc, "field-op name", f.Name, len(p.Names)); err != nil {
		return err
	}
	if !validBinOp(int32(f.Op)) {
		return fail(pc, "field op %d operator %d is not defined", idx, f.Op)
	}
	return nil
}
