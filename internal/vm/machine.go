package vm

import (
	"fmt"

	"selspec/internal/dispatch"
	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

// Machine executes one compiled module against the *interp.Interp it
// wraps. The Interp supplies every observable service — dispatch,
// version selection, inline caches, counters, cycle charges, profiling,
// the resource guard, print output — through the engine seams of
// internal/interp, so a Machine run and a tree run of the same program
// are distinguishable only by wall-clock speed. A Machine, like an
// Interp, is single-goroutine state.
type Machine struct {
	in  *interp.Interp
	g   *interp.Guard
	mod *Module

	// stack is the contiguous register arena for frames that no closure
	// captures; sp is the allocation cursor. Frames that outgrow the
	// arena fall back to individual heap windows, and frames captured
	// by closures always live on the heap (see Proc.NeedsFrame).
	stack []interp.Value
	sp    int

	globals []interp.Value
	ready   []bool

	clsBuf    []*hier.Class // scratch for dispatch class tuples
	returning bool          // a vmReturn unwind is in flight

	// ic is the per-call-site inline-cache slot array, indexed directly
	// by the site ID baked into each OpSend/OpVSelect instruction: a
	// dispatch whose version matches the slot jumps straight to the
	// precompiled proc, skipping the version→proc map. The slot is
	// filled at cache-fill time (the first dispatch to that version),
	// which is also when version-table selection ran — per the issue's
	// "version-table selection happens at cache-fill time, not per
	// send": a PIC hit re-uses both the selected version and its proc.
	//
	// Send and version-select caches are separate arrays even though
	// both are keyed by site ID: a VersionSelect reuses the CallSite of
	// the send it was devirtualized from, so under configs that
	// specialize (CHA/Selective) the same ID can be a dynamic send in
	// one compiled version and a static version-select in another. Send
	// ways must mirror the site's PIC exactly (NotePICHitAt replays the
	// PIC promotion by index); version-select ways are a free-standing
	// MRU cache. Sharing one array lets vselect plant ways the PIC
	// never had, driving PromoteAt out of bounds — or worse, resolving
	// a dynamic send to the statically-selected version.
	ic    []icEntry
	icSel []icEntry

	// One-entry closure-proc cache: loops overwhelmingly re-invoke the
	// closure they just called, so this removes the map lookup from the
	// closure-call hot path.
	lastCode *ir.ClosureCode
	lastProc *Proc

	// frames is the explicit continuation stack for flattened calls:
	// when both caller and callee run in arena register windows, a call
	// pushes the caller's resume state here and the dispatch loop
	// switches to the callee in place — no Go-level recursion, no
	// per-call native stack traffic. Heap-framed procs (closure
	// creators) and arena-overflow windows still recurse natively.
	frames []vmFrame
	fp     int
}

// vmFrame is one suspended caller in the flattened call stack.
type vmFrame struct {
	p    *Proc
	regs []interp.Value
	up   *interp.Frame
	act  *interp.Activation
	pc   int // resume pc (instruction after the call)
	dest int // caller register receiving the callee's result
	base int // caller's arena base
	sp   int // caller's arena cursor to restore
}

// vmReturn implements (non-local) return via panic/recover, the VM
// analogue of the tree tier's returnSignal.
type vmReturn struct {
	act *interp.Activation
	val interp.Value
}

// New compiles in's program to bytecode and wraps in in a Machine. An
// error means the program uses a construct the bytecode compiler does
// not support; the caller (driver) falls back to the tree tier. No
// guest code runs here, so fallback has no observable side effects.
func New(in *interp.Interp) (*Machine, error) {
	mod, err := newModule(in.C)
	if err != nil {
		return nil, err
	}
	return &Machine{
		in:    in,
		g:     in.Guard(),
		mod:   mod,
		stack: make([]interp.Value, 4096),
		ic:    make([]icEntry, len(in.C.Prog.Sites)),
		icSel: make([]icEntry, len(in.C.Prog.Sites)),
	}, nil
}

// icWay is one way of an inline-cache slot: a class tuple (up to two
// positions, covering the dominant send arities) with the version it
// dispatches to and that version's compiled proc (resolved lazily for
// mirrored entries that have not been invoked through this way yet).
type icWay struct {
	v   *ir.Version
	p   *Proc
	mth *hier.Method
	c0  *hier.Class
	c1  *hier.Class
	n   int32
}

// icWays is the number of ways per inline-cache slot: enough to keep a
// site cycling among a few receiver classes (the InstSched pattern)
// inside the cache, small enough that a full miss scan stays cheap.
const icWays = 4

// icEntry is one multi-way inline-cache slot, indexed by site ID. A hit
// is a compare-and-jump: pointer-compare the argument classes against a
// way, charge the hit accounting through the shared seams, and enter
// the precompiled body — no class-tuple buffer, no PIC probe, no
// version-table lookup.
//
// For send sites the ways mirror the underlying PIC's first icWays
// entries exactly (refreshed after every generic dispatch), and a
// behind-the-front hit replays the PIC's order-preserving move-to-front
// promotion through NotePICHitAt plus the identical shift on the mirror
// — so the PIC's hit/miss/promotion counters and internal order stay
// byte-identical to a tree run. Version-select sites have no PIC state;
// their ways are a plain MRU set.
type icEntry struct {
	w [icWays]icWay
}

// wayMatch reports whether the way caches exactly the classes of args
// (arity n). Empty ways have n == 0 and never match (sends and selects
// through the cache always have at least the receiver argument).
func (w *icWay) wayMatch(args []interp.Value, n int32, h *hier.Hierarchy) bool {
	return w.n == n && w.v != nil && args[0].Class(h) == w.c0 &&
		(n == 1 || args[1].Class(h) == w.c1)
}

// match scans ways 1..icWays-1 for the argument classes (way 0 is the
// caller's unrolled front fast path) and returns the matching way index,
// or 0 when none matches behind the front.
func (ic *icEntry) match(args []interp.Value, n int32, h *hier.Hierarchy) int {
	for i := 1; i < icWays; i++ {
		if ic.w[i].wayMatch(args, n, h) {
			return i
		}
	}
	return 0
}

// mirrorWay fills w from a PIC entry, or clears it when the entry is
// absent or its tuple is too wide for the inline compare.
func mirrorWay(w *icWay, classes []*hier.Class, t dispatch.Target, ok bool, v *ir.Version, cp *Proc) {
	if !ok || len(classes) < 1 || len(classes) > 2 {
		*w = icWay{}
		return
	}
	w.n = int32(len(classes))
	w.c0 = classes[0]
	if w.n == 2 {
		w.c1 = classes[1]
	} else {
		w.c1 = nil
	}
	w.v, w.mth = t.Version, t.Method
	if t.Version == v {
		w.p = cp
	} else {
		w.p = nil // resolved on first hit through this way
	}
}

// refreshSendIC re-mirrors a send site's inline cache from its PIC
// after a generic dispatch (v, cp = the dispatch result, for proc
// reuse). Under the global or table mechanisms there is no PIC and the
// cache stays empty — every dispatch keeps its full lookup accounting.
func (m *Machine) refreshSendIC(ic *icEntry, site *ir.CallSite, v *ir.Version, cp *Proc) {
	pic := m.in.SitePIC(site.ID)
	if pic == nil {
		return
	}
	for i := range ic.w {
		c, t, ok := pic.Entry(i)
		mirrorWay(&ic.w[i], c, t, ok, v, cp)
	}
}

// Interp returns the wrapped interpreter (counters, profile, metrics).
func (m *Machine) Interp() *interp.Interp { return m.in }

func vmFail(format string, args ...any) {
	panic(&interp.RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

func vmFailAt(pos lang.Pos, format string, args ...any) {
	panic(&interp.RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// fill points the cache at cls, the miss path of a dynamic field
// access: a class without the field fails with the tree tier's error
// text.
func (ic *FieldIC) fill(cls *hier.Class, name string) {
	idx := cls.FieldIndex(name)
	if idx < 0 {
		vmFail("class %s has no field %q", cls.Name, name)
	}
	ic.class, ic.slot = cls, idx
}

// Run initializes globals and invokes main(); it returns main's value.
// The boundary mirrors interp.Run exactly: Mini-Cecil runtime errors
// (including guard trips) come back as *interp.RuntimeError, a stray
// non-local return becomes the same "already exited" error, and the
// observability totals flush on every exit path.
func (m *Machine) Run() (v interp.Value, err error) {
	in := m.in
	defer in.FlushObs()
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*interp.RuntimeError); ok {
				err = re
				return
			}
			if _, ok := r.(vmReturn); ok {
				m.returning = false
				err = &interp.RuntimeError{Msg: "return from a method activation that already exited"}
				return
			}
			panic(r)
		}
	}()

	m.g.Arm(in.StepLimit, in.DepthLimit, in.Ctx)
	m.returning = false
	m.sp = 0
	m.fp = 0

	m.globals = make([]interp.Value, len(in.C.GlobalInits))
	m.ready = make([]bool, len(in.C.GlobalInits))
	in.Globals = m.globals
	for i, p := range m.mod.globalInits {
		m.globals[i] = m.runThunk(p)
		m.ready[i] = true
	}

	if in.C.Prog.Main == nil {
		return interp.NilV, fmt.Errorf("interp: program has no main() method")
	}
	mn, derr := in.H.Lookup(in.C.Prog.Main)
	if derr != nil {
		return interp.NilV, derr
	}
	return m.invoke(in.C.SelectVersion(mn, nil), nil, lang.Pos{}), nil
}

// clearSlots zeroes the frame-slot registers past the copied-in
// parameters, giving unassigned locals the tree tier's zero Value.
// Temporaries above NumSlots are never cleared: the compiler's
// write-into-dest discipline guarantees every temp is written on a
// path before it is read on that path, so stale arena contents are
// unobservable.
func clearSlots(regs []interp.Value, from, to int) {
	clear(regs[from:to])
}

// runThunk executes an initializer proc (global or field init) the way
// the tree tier evaluates init nodes: no frame, no activation, no call
// depth charged.
func (m *Machine) runThunk(p *Proc) interp.Value {
	base := m.sp
	if base+p.NumRegs <= len(m.stack) {
		regs := m.stack[base : base+p.NumRegs]
		clearSlots(regs, 0, p.NumSlots)
		m.sp = base + p.NumRegs
		v := m.exec(p, regs, nil, nil, nil, base)
		m.sp = base
		return v
	}
	return m.exec(p, make([]interp.Value, p.NumRegs), nil, nil, nil, -1)
}

// proc resolves the compiled proc for a method version, compiling
// lazily for versions whose bodies the lazy configurations produce
// mid-run. Raises the tree tier's "compile: ..." RuntimeError when lazy
// body compilation fails.
func (m *Machine) proc(v *ir.Version) *Proc {
	if p, ok := m.mod.procs[v]; ok {
		return p
	}
	if _, err := m.in.C.Body(v); err != nil {
		vmFail("compile: %v", err)
	}
	p, err := m.mod.version(v)
	if err != nil {
		// Unreachable for today's IR (the compiler covers every node
		// type); surface as the tree tier's internal-error shape.
		var ce *CompileError
		if ok := asCompileError(err, &ce); ok {
			vmFailAt(m.g.CallPos(), "internal error: unknown IR node %T", ce.Node)
		}
		vmFail("compile: %v", err)
	}
	return p
}

func asCompileError(err error, out **CompileError) bool {
	ce, ok := err.(*CompileError)
	if ok {
		*out = ce
	}
	return ok
}

// invoke runs one method version from the Run boundary: the VM
// counterpart of interp.invoke, with identical guard, profile and
// counter sequencing (enter the depth guard, resolve the body, note
// the entry, run).
func (m *Machine) invoke(v *ir.Version, args []interp.Value, pos lang.Pos) interp.Value {
	m.g.Enter(pos)
	p := m.proc(v)
	if !p.noted {
		p.noted = true
		m.in.MarkInvoked(v)
	}
	m.in.NoteInvokeKnown(v, args)
	ret := m.runNoted(p, args)
	m.g.Leave()
	return ret
}

// runNoted executes a method proc whose entry has already been charged
// (NoteInvokeKnown) and whose depth guard is entered: the slow call
// path, for callees the dispatch loop cannot run in a flattened
// in-place window — closure creators (heap frame + activation), calls
// from heap-framed callers, and arena overflow.
func (m *Machine) runNoted(p *Proc, args []interp.Value) interp.Value {
	if p.NeedsFrame {
		regs := make([]interp.Value, p.NumRegs)
		copy(regs, args)
		fr := &interp.Frame{Slots: regs[:p.NumSlots]}
		return m.runMethodAct(p, regs, fr)
	}
	if base := m.sp; base+p.NumRegs <= len(m.stack) {
		regs := m.stack[base : base+p.NumRegs]
		copy(regs, args)
		clearSlots(regs, len(args), p.NumSlots)
		m.sp = base + p.NumRegs
		ret := m.exec(p, regs, nil, nil, nil, base)
		m.sp = base
		return ret
	}
	regs := make([]interp.Value, p.NumRegs)
	copy(regs, args)
	return m.exec(p, regs, nil, nil, nil, -1)
}

// runEntered executes a closure proc after NoteClosureCall and the
// depth-guard Enter: the slow closure path (closure bodies that create
// closures, heap-framed callers, arena overflow).
func (m *Machine) runEntered(p *Proc, args []interp.Value, up *interp.Frame, act *interp.Activation) interp.Value {
	if p.NeedsFrame {
		regs := make([]interp.Value, p.NumRegs)
		copy(regs, args)
		fr := &interp.Frame{Slots: regs[:p.NumSlots], Parent: up}
		return m.exec(p, regs, up, act, fr, -1)
	}
	if base := m.sp; base+p.NumRegs <= len(m.stack) {
		regs := m.stack[base : base+p.NumRegs]
		copy(regs, args)
		clearSlots(regs, len(args), p.NumSlots)
		m.sp = base + p.NumRegs
		ret := m.exec(p, regs, up, act, nil, base)
		m.sp = base
		return ret
	}
	regs := make([]interp.Value, p.NumRegs)
	copy(regs, args)
	return m.exec(p, regs, up, act, nil, -1)
}

// closureProc resolves a closure body's compiled proc, raising the
// tree tier's error shapes on (unreachable today) compile failure.
func (m *Machine) closureProc(code *ir.ClosureCode) *Proc {
	p, err := m.mod.closure(code)
	if err != nil {
		var ce *CompileError
		if asCompileError(err, &ce) {
			vmFailAt(m.g.CallPos(), "internal error: unknown IR node %T", ce.Node)
		}
		vmFail("compile: %v", err)
	}
	return p
}

// runMethodAct executes a method body that creates closures, under a
// live activation that non-local returns can target. Like the tree
// tier's runBody, the recover is gated on m.returning so fatal faults
// unwind linearly; unlike the tree tier, catching a return restores the
// absolute call depth and arena cursor in one step instead of relying
// on per-frame deferred leaves.
func (m *Machine) runMethodAct(p *Proc, regs []interp.Value, fr *interp.Frame) (result interp.Value) {
	act := interp.NewActivation()
	savedDepth := m.g.Depth()
	savedSP := m.sp
	savedFP := m.fp
	defer func() {
		act.Exit()
		if !m.returning {
			return
		}
		if r := recover(); r != nil {
			if rs, ok := r.(vmReturn); ok && rs.act == act {
				m.returning = false
				m.g.SetDepth(savedDepth)
				m.sp = savedSP
				m.fp = savedFP
				result = rs.val
				return
			}
			panic(r) // a return aimed at an outer activation: keep unwinding
		}
	}()
	return m.exec(p, regs, nil, act, fr, -1)
}

// exec is the dispatch loop. regs is this proc's register window; up is
// the static parent frame (closure procs only), act the activation
// non-local returns target (nil in initializers), fr this proc's heap
// frame when NeedsFrame, and base the window's absolute arena index
// (-1 for heap windows) — call instructions use it to hand the callee
// an in-place register window starting at the argument registers.
func (m *Machine) exec(p *Proc, regs []interp.Value, up *interp.Frame, act *interp.Activation, fr *interp.Frame, base int) interp.Value {
	in := m.in
	code := p.Code
	pc := 0
	// entryFP marks this invocation's floor in the flattened call
	// stack: OpRet pops only frames this invocation pushed, then
	// returns natively to the caller (runMethodAct, runThunk, Run).
	entryFP := m.fp
	// cyc and prims batch this invocation's cycle and primitive-op
	// charges in registers; the deferred flush runs on every exit path
	// (normal return, guard trip, runtime error, non-local return), so
	// the interpreter's counters are exact whenever they are observable
	// — at run end and at error capture. Nothing reads them mid-run.
	var cyc, prims uint64
	defer func() {
		in.Counters.Cycles += cyc
		in.Counters.PrimOps += prims
	}()
	for {
		i := &code[pc]
		switch i.Op {
		case OpConst:
			regs[i.A] = p.Consts[i.B]

		case OpMove:
			regs[i.A] = regs[i.B]

		case OpJump:
			pc = int(i.A)
			continue

		case OpBranchFalse:
			v := regs[i.A]
			if v.K != interp.KBool {
				vmFail(checkMsgs[i.C], v)
			}
			cyc += interp.CostBin
			if v.I == 0 {
				pc = int(i.B)
				continue
			}

		case OpCheckBool:
			if regs[i.A].K != interp.KBool {
				vmFail(checkMsgs[i.C], regs[i.A])
			}

		case OpCmpBr:
			// Fused Bin(compare) + branch: one PrimOp and CostBin for
			// the comparison, then CostBin for the branch — exactly the
			// unfused accounting, failure point included (a mixed-type
			// comparison faults after the first charge, like EvalBin).
			l, r := regs[i.A], regs[i.B]
			prims++
			cyc += interp.CostBin
			var b bool
			if l.K == interp.KInt && r.K == interp.KInt {
				switch ir.BinOp(i.D) {
				case ir.OpLT:
					b = l.I < r.I
				case ir.OpLE:
					b = l.I <= r.I
				case ir.OpGT:
					b = l.I > r.I
				case ir.OpGE:
					b = l.I >= r.I
				case ir.OpEQ:
					b = l.I == r.I
				default:
					b = l.I != r.I
				}
			} else {
				b = interp.EvalBin(ir.BinOp(i.D), l, r).I != 0
			}
			cyc += interp.CostBin
			if !b {
				pc = int(i.C)
				continue
			}

		case OpCmpBrK:
			l, r := regs[i.A], p.Consts[i.B]
			prims++
			cyc += interp.CostBin
			var b bool
			if l.K == interp.KInt && r.K == interp.KInt {
				switch ir.BinOp(i.D) {
				case ir.OpLT:
					b = l.I < r.I
				case ir.OpLE:
					b = l.I <= r.I
				case ir.OpGT:
					b = l.I > r.I
				case ir.OpGE:
					b = l.I >= r.I
				case ir.OpEQ:
					b = l.I == r.I
				default:
					b = l.I != r.I
				}
			} else {
				b = interp.EvalBin(ir.BinOp(i.D), l, r).I != 0
			}
			cyc += interp.CostBin
			if !b {
				pc = int(i.C)
				continue
			}

		case OpCmpBrField:
			f := &p.FieldOps[i.D]
			ov := regs[i.B]
			if ov.K != interp.KObj {
				vmFail("field %q read on non-object %s", p.Names[f.Name], ov)
			}
			cyc += interp.CostFieldCached
			l, r := regs[i.A], ov.O.Fields[f.Slot]
			prims++
			cyc += interp.CostBin
			var b bool
			if l.K == interp.KInt && r.K == interp.KInt {
				switch f.Op {
				case ir.OpLT:
					b = l.I < r.I
				case ir.OpLE:
					b = l.I <= r.I
				case ir.OpGT:
					b = l.I > r.I
				case ir.OpGE:
					b = l.I >= r.I
				case ir.OpEQ:
					b = l.I == r.I
				default:
					b = l.I != r.I
				}
			} else {
				b = interp.EvalBin(f.Op, l, r).I != 0
			}
			cyc += interp.CostBin
			if !b {
				pc = int(i.C)
				continue
			}

		case OpStep:
			m.g.Step()

		case OpCharge:
			cyc += uint64(i.A)

		case OpGetUp:
			f := up
			for d := i.B; d > 1; d-- {
				f = f.Parent
			}
			regs[i.A] = f.Slots[i.C]

		case OpSetUp:
			f := up
			for d := i.B; d > 1; d-- {
				f = f.Parent
			}
			f.Slots[i.C] = regs[i.A]

		case OpGetGlobal:
			if !m.ready[i.B] {
				vmFail("global %s read before its initializer has run", p.Names[i.C])
			}
			regs[i.A] = m.globals[i.B]

		case OpSetGlobal:
			m.globals[i.B] = regs[i.A]
			m.ready[i.B] = true

		case OpGetField:
			obj := regs[i.B]
			if obj.K != interp.KObj {
				vmFail("field %q read on non-object %s", p.Names[i.D], obj)
			}
			cyc += interp.CostFieldCached
			regs[i.A] = obj.O.Fields[i.C]

		case OpGetFieldDyn:
			obj := regs[i.B]
			name := p.Names[i.D]
			if obj.K != interp.KObj {
				vmFail("field %q read on non-object %s", name, obj)
			}
			cyc += interp.CostFieldLookup
			ic := &p.FieldICs[i.C]
			if ic.class != obj.O.Class {
				ic.fill(obj.O.Class, name)
			}
			regs[i.A] = obj.O.Fields[ic.slot]

		case OpSetField:
			obj := regs[i.A]
			v := regs[i.B]
			if obj.K != interp.KObj {
				vmFail("field %q written on non-object %s", p.Names[i.D], obj)
			}
			cyc += interp.CostFieldCached
			in.CheckFieldType(obj.O.Class, int(i.C), v)
			obj.O.Fields[i.C] = v

		case OpSetFieldDyn:
			obj := regs[i.A]
			v := regs[i.B]
			name := p.Names[i.D]
			if obj.K != interp.KObj {
				vmFail("field %q written on non-object %s", name, obj)
			}
			cyc += interp.CostFieldLookup
			ic := &p.FieldICs[i.C]
			if ic.class != obj.O.Class {
				ic.fill(obj.O.Class, name)
			}
			idx := ic.slot
			in.CheckFieldType(obj.O.Class, idx, v)
			obj.O.Fields[idx] = v

		case OpNew:
			ref := &p.News[i.B]
			cls := ref.Class
			obj := &interp.Object{Class: cls, Fields: make([]interp.Value, len(cls.Fields))}
			for f := range obj.Fields {
				obj.Fields[f] = interp.NilV
			}
			args := regs[i.C : i.C+i.D]
			copy(obj.Fields, args)
			inits := ref.inits
			for f := int(i.D); f < len(cls.Fields); f++ {
				if f < len(inits) && inits[f] != nil {
					obj.Fields[f] = m.runThunk(inits[f])
				}
			}
			for f := range cls.Fields {
				in.CheckFieldType(cls, f, obj.Fields[f])
			}
			regs[i.A] = interp.Value{K: interp.KObj, O: obj}

		case OpMakeClosure:
			cyc += interp.CostClosureMake
			regs[i.A] = interp.Value{K: interp.KClosure, C: &interp.Closure{Code: p.Closures[i.B], Frame: fr, Act: act}}

		case OpCheckClosure:
			fn := regs[i.A]
			if fn.K != interp.KClosure {
				vmFailAt(p.Poss[i.C], "calling a non-closure value %s", fn)
			}
			if int(i.B) != fn.C.Code.NumParams {
				vmFailAt(p.Poss[i.C], "closure expects %d arguments, got %d", fn.C.Code.NumParams, i.B)
			}

		case OpCallClosure:
			clo := regs[i.B].C
			args := regs[i.C : i.C+int32(clo.Code.NumParams)]
			in.NoteClosureCall()
			var cp *Proc
			if clo.Code == m.lastCode {
				cp = m.lastProc
			} else {
				cp = m.closureProc(clo.Code)
				m.lastCode, m.lastProc = clo.Code, cp
			}
			m.g.Enter(p.Poss[i.D])
			if !cp.NeedsFrame && base >= 0 {
				if ab := base + int(i.C); ab+cp.NumRegs <= len(m.stack) {
					if m.fp == len(m.frames) {
						m.frames = append(m.frames, vmFrame{})
					}
					f := &m.frames[m.fp]
					m.fp++
					f.p, f.regs, f.up, f.act = p, regs, up, act
					f.pc, f.dest, f.base, f.sp = pc+1, int(i.A), base, m.sp
					p, code = cp, cp.Code
					nr := m.stack[ab : ab+cp.NumRegs]
					clearSlots(nr, len(args), cp.NumSlots)
					regs, base = nr, ab
					m.sp = ab + cp.NumRegs
					up, act = clo.Frame, clo.Act
					pc = 0
					continue
				}
			}
			ret := m.runEntered(cp, args, clo.Frame, clo.Act)
			m.g.Leave()
			regs[i.A] = ret

		case OpSend:
			args := regs[i.C : i.C+i.D]
			site := p.Sites[i.B]
			ic := &m.ic[site.ID]
			var v *ir.Version
			var cp *Proc
			if w := &ic.w[0]; w.wayMatch(args, i.D, in.H) {
				v, cp = w.v, w.p
				in.NotePICHit(site, w.mth, v)
				m.g.Enter(site.Pos)
				if cp == nil {
					cp = m.proc(v)
					w.p = cp
				}
				// The way mirrors the PIC front entry: a front hit leaves
				// PIC state untouched, so the mirror stays exact.
			} else if wi := ic.match(args, i.D, in.H); wi > 0 {
				w := &ic.w[wi]
				v = w.v
				in.NotePICHitAt(site, w.mth, v, wi)
				m.g.Enter(site.Pos)
				cp = w.p
				if cp == nil {
					cp = m.proc(v)
					w.p = cp
				}
				// NotePICHitAt promoted the PIC's entry wi to the front
				// with an order-preserving shift; mirror the same shift.
				hw := *w
				copy(ic.w[1:wi+1], ic.w[:wi])
				ic.w[0] = hw
			} else {
				m.clsBuf = in.ClassesOf(args, m.clsBuf)
				v = in.DispatchSendClasses(site, m.clsBuf)
				// Enter before body resolution, as the tree tier does: a
				// depth trip must win over a lazy-compile failure.
				m.g.Enter(site.Pos)
				cp = m.proc(v)
				m.refreshSendIC(ic, site, v, cp)
			}
			if !cp.noted {
				cp.noted = true
				in.MarkInvoked(v)
			}
			in.NoteInvokeKnown(v, args)
			if !cp.NeedsFrame && base >= 0 {
				if ab := base + int(i.C); ab+cp.NumRegs <= len(m.stack) {
					if m.fp == len(m.frames) {
						m.frames = append(m.frames, vmFrame{})
					}
					f := &m.frames[m.fp]
					m.fp++
					f.p, f.regs, f.up, f.act = p, regs, up, act
					f.pc, f.dest, f.base, f.sp = pc+1, int(i.A), base, m.sp
					p, code = cp, cp.Code
					nr := m.stack[ab : ab+cp.NumRegs]
					clearSlots(nr, len(args), cp.NumSlots)
					regs, base = nr, ab
					m.sp = ab + cp.NumRegs
					up, act = nil, nil
					pc = 0
					continue
				}
			}
			ret := m.runNoted(cp, args)
			m.g.Leave()
			regs[i.A] = ret

		case OpStaticCall:
			ref := &p.Statics[i.B]
			args := regs[i.C : i.C+i.D]
			in.NoteStaticCall(ref.Site, ref.Target)
			m.g.Enter(ref.Site.Pos)
			cp := ref.proc
			if cp == nil {
				cp = m.proc(ref.Target)
				ref.proc = cp
			}
			if !cp.noted {
				cp.noted = true
				in.MarkInvoked(ref.Target)
			}
			in.NoteInvokeKnown(ref.Target, args)
			if !cp.NeedsFrame && base >= 0 {
				if ab := base + int(i.C); ab+cp.NumRegs <= len(m.stack) {
					if m.fp == len(m.frames) {
						m.frames = append(m.frames, vmFrame{})
					}
					f := &m.frames[m.fp]
					m.fp++
					f.p, f.regs, f.up, f.act = p, regs, up, act
					f.pc, f.dest, f.base, f.sp = pc+1, int(i.A), base, m.sp
					p, code = cp, cp.Code
					nr := m.stack[ab : ab+cp.NumRegs]
					clearSlots(nr, len(args), cp.NumSlots)
					regs, base = nr, ab
					m.sp = ab + cp.NumRegs
					up, act = nil, nil
					pc = 0
					continue
				}
			}
			ret := m.runNoted(cp, args)
			m.g.Leave()
			regs[i.A] = ret

		case OpVSelect:
			ref := &p.VSels[i.B]
			args := regs[i.C : i.C+i.D]
			ic := &m.icSel[ref.Site.ID]
			var v *ir.Version
			var cp *Proc
			if w := &ic.w[0]; w.wayMatch(args, i.D, in.H) {
				v, cp = w.v, w.p
				in.NoteVersionSelect(ref.Site, ref.Method, v)
				m.g.Enter(ref.Site.Pos)
			} else if wi := ic.match(args, i.D, in.H); wi > 0 {
				w := ic.w[wi]
				v, cp = w.v, w.p
				in.NoteVersionSelect(ref.Site, ref.Method, v)
				m.g.Enter(ref.Site.Pos)
				// Selection is a deterministic table lookup with no
				// engine-visible cache state, so the ways are plain MRU:
				// move the hit to the front.
				copy(ic.w[1:wi+1], ic.w[:wi])
				ic.w[0] = w
			} else {
				m.clsBuf = in.ClassesOf(args, m.clsBuf)
				v = in.SelectVersionClasses(ref.Site, ref.Method, m.clsBuf)
				m.g.Enter(ref.Site.Pos)
				cp = m.proc(v)
				if i.D >= 1 && i.D <= 2 {
					copy(ic.w[1:], ic.w[:icWays-1])
					w := &ic.w[0]
					w.n, w.c0 = i.D, m.clsBuf[0]
					if i.D == 2 {
						w.c1 = m.clsBuf[1]
					} else {
						w.c1 = nil
					}
					w.v, w.mth, w.p = v, v.Method, cp
				}
			}
			if !cp.noted {
				cp.noted = true
				in.MarkInvoked(v)
			}
			in.NoteInvokeKnown(v, args)
			if !cp.NeedsFrame && base >= 0 {
				if ab := base + int(i.C); ab+cp.NumRegs <= len(m.stack) {
					if m.fp == len(m.frames) {
						m.frames = append(m.frames, vmFrame{})
					}
					f := &m.frames[m.fp]
					m.fp++
					f.p, f.regs, f.up, f.act = p, regs, up, act
					f.pc, f.dest, f.base, f.sp = pc+1, int(i.A), base, m.sp
					p, code = cp, cp.Code
					nr := m.stack[ab : ab+cp.NumRegs]
					clearSlots(nr, len(args), cp.NumSlots)
					regs, base = nr, ab
					m.sp = ab + cp.NumRegs
					up, act = nil, nil
					pc = 0
					continue
				}
			}
			ret := m.runNoted(cp, args)
			m.g.Leave()
			regs[i.A] = ret

		case OpPrim:
			// The allocation-free primitives run inline with the same
			// PrimOps/CostPrim accounting as CallPrim; every fallthrough
			// (other prims, and all failure shapes) takes the shared seam,
			// which charges first and then raises the tree tier's exact
			// error — so the fast path charges nothing before deferring.
			args := regs[i.C : i.C+i.D]
			switch ir.Prim(i.B) {
			case ir.PrimAGet:
				if a, ix := args[0], args[1]; a.K == interp.KArray && ix.K == interp.KInt &&
					ix.I >= 0 && ix.I < int64(len(a.A.Elems)) {
					prims++
					cyc += interp.CostPrim
					regs[i.A] = a.A.Elems[ix.I]
					break
				}
				regs[i.A] = in.CallPrim(ir.Prim(i.B), args)
			case ir.PrimAPut:
				if a, ix := args[0], args[1]; a.K == interp.KArray && ix.K == interp.KInt &&
					ix.I >= 0 && ix.I < int64(len(a.A.Elems)) {
					prims++
					cyc += interp.CostPrim
					a.A.Elems[ix.I] = args[2]
					regs[i.A] = args[2]
					break
				}
				regs[i.A] = in.CallPrim(ir.Prim(i.B), args)
			case ir.PrimALen:
				if args[0].K == interp.KArray {
					prims++
					cyc += interp.CostPrim
					regs[i.A] = interp.IntV(int64(len(args[0].A.Elems)))
					break
				}
				regs[i.A] = in.CallPrim(ir.Prim(i.B), args)
			case ir.PrimStrLen:
				if args[0].K == interp.KStr {
					prims++
					cyc += interp.CostPrim
					regs[i.A] = interp.IntV(int64(len(args[0].S)))
					break
				}
				regs[i.A] = in.CallPrim(ir.Prim(i.B), args)
			case ir.PrimOrd:
				if args[0].K == interp.KStr && len(args[0].S) > 0 {
					prims++
					cyc += interp.CostPrim
					regs[i.A] = interp.IntV(int64(args[0].S[0]))
					break
				}
				regs[i.A] = in.CallPrim(ir.Prim(i.B), args)
			default:
				regs[i.A] = in.CallPrim(ir.Prim(i.B), args)
			}

		case OpBin:
			l, r := regs[i.B], regs[i.C]
			prims++
			cyc += interp.CostBin
			if l.K == interp.KInt && r.K == interp.KInt {
				switch ir.BinOp(i.D) {
				case ir.OpAdd:
					regs[i.A] = interp.IntV(l.I + r.I)
				case ir.OpSub:
					regs[i.A] = interp.IntV(l.I - r.I)
				case ir.OpMul:
					regs[i.A] = interp.IntV(l.I * r.I)
				case ir.OpLT:
					regs[i.A] = interp.BoolV(l.I < r.I)
				case ir.OpLE:
					regs[i.A] = interp.BoolV(l.I <= r.I)
				case ir.OpGT:
					regs[i.A] = interp.BoolV(l.I > r.I)
				case ir.OpGE:
					regs[i.A] = interp.BoolV(l.I >= r.I)
				case ir.OpEQ:
					regs[i.A] = interp.BoolV(l.I == r.I)
				case ir.OpNE:
					regs[i.A] = interp.BoolV(l.I != r.I)
				default:
					regs[i.A] = interp.EvalBin(ir.BinOp(i.D), l, r)
				}
			} else {
				regs[i.A] = interp.EvalBin(ir.BinOp(i.D), l, r)
			}

		case OpBinK:
			l, r := regs[i.B], p.Consts[i.C]
			prims++
			cyc += interp.CostBin
			if l.K == interp.KInt && r.K == interp.KInt {
				switch ir.BinOp(i.D) {
				case ir.OpAdd:
					regs[i.A] = interp.IntV(l.I + r.I)
				case ir.OpSub:
					regs[i.A] = interp.IntV(l.I - r.I)
				case ir.OpMul:
					regs[i.A] = interp.IntV(l.I * r.I)
				case ir.OpLT:
					regs[i.A] = interp.BoolV(l.I < r.I)
				case ir.OpLE:
					regs[i.A] = interp.BoolV(l.I <= r.I)
				case ir.OpGT:
					regs[i.A] = interp.BoolV(l.I > r.I)
				case ir.OpGE:
					regs[i.A] = interp.BoolV(l.I >= r.I)
				case ir.OpEQ:
					regs[i.A] = interp.BoolV(l.I == r.I)
				case ir.OpNE:
					regs[i.A] = interp.BoolV(l.I != r.I)
				default:
					// Div/Mod: the shared fallback owns the zero checks.
					regs[i.A] = interp.EvalBin(ir.BinOp(i.D), l, r)
				}
			} else {
				regs[i.A] = interp.EvalBin(ir.BinOp(i.D), l, r)
			}

		case OpAGet:
			a, ix := regs[i.B], regs[i.C]
			if a.K == interp.KArray && ix.K == interp.KInt &&
				ix.I >= 0 && ix.I < int64(len(a.A.Elems)) {
				prims++
				cyc += interp.CostPrim
				regs[i.A] = a.A.Elems[ix.I]
			} else {
				// Shared seam: charges first, then raises the tree tier's
				// exact error for every failure shape.
				regs[i.A] = in.CallPrim(ir.PrimAGet, []interp.Value{a, ix})
			}

		case OpAPut:
			a, ix := regs[i.B], regs[i.C]
			if a.K == interp.KArray && ix.K == interp.KInt &&
				ix.I >= 0 && ix.I < int64(len(a.A.Elems)) {
				prims++
				cyc += interp.CostPrim
				v := regs[i.D]
				a.A.Elems[ix.I] = v
				regs[i.A] = v
			} else {
				regs[i.A] = in.CallPrim(ir.PrimAPut, []interp.Value{a, ix, regs[i.D]})
			}

		case OpFieldBin, OpFieldBinK, OpBinField:
			f := &p.FieldOps[i.D]
			ov := regs[i.B]
			if ov.K != interp.KObj {
				vmFail("field %q read on non-object %s", p.Names[f.Name], ov)
			}
			cyc += interp.CostFieldCached
			var l, r interp.Value
			switch i.Op {
			case OpFieldBin:
				l, r = ov.O.Fields[f.Slot], regs[i.C]
			case OpFieldBinK:
				l, r = ov.O.Fields[f.Slot], p.Consts[i.C]
			default: // OpBinField: field is the right operand
				l, r = regs[i.C], ov.O.Fields[f.Slot]
			}
			prims++
			cyc += interp.CostBin
			if l.K == interp.KInt && r.K == interp.KInt {
				switch f.Op {
				case ir.OpAdd:
					regs[i.A] = interp.IntV(l.I + r.I)
				case ir.OpSub:
					regs[i.A] = interp.IntV(l.I - r.I)
				case ir.OpMul:
					regs[i.A] = interp.IntV(l.I * r.I)
				case ir.OpLT:
					regs[i.A] = interp.BoolV(l.I < r.I)
				case ir.OpLE:
					regs[i.A] = interp.BoolV(l.I <= r.I)
				case ir.OpGT:
					regs[i.A] = interp.BoolV(l.I > r.I)
				case ir.OpGE:
					regs[i.A] = interp.BoolV(l.I >= r.I)
				case ir.OpEQ:
					regs[i.A] = interp.BoolV(l.I == r.I)
				case ir.OpNE:
					regs[i.A] = interp.BoolV(l.I != r.I)
				default:
					regs[i.A] = interp.EvalBin(f.Op, l, r)
				}
			} else {
				regs[i.A] = interp.EvalBin(f.Op, l, r)
			}

		case OpNot:
			x := regs[i.B]
			prims++
			cyc += interp.CostBin
			if x.K != interp.KBool {
				vmFail("'!' on non-boolean %s", x)
			}
			regs[i.A] = interp.BoolV(x.I == 0)

		case OpNeg:
			x := regs[i.B]
			prims++
			cyc += interp.CostBin
			if x.K != interp.KInt {
				vmFail("unary '-' on non-integer %s", x)
			}
			regs[i.A] = interp.IntV(-x.I)

		case OpRet:
			if m.fp > entryFP {
				// Pop a flattened caller: restore its loop state in place
				// and keep dispatching — the Go stack never moved.
				ret := regs[i.A]
				m.g.Leave()
				m.fp--
				f := &m.frames[m.fp]
				p, regs, up, act = f.p, f.regs, f.up, f.act
				code = p.Code
				pc = f.pc
				base = f.base
				m.sp = f.sp
				regs[f.dest] = ret
				f.p, f.regs, f.up, f.act = nil, nil, nil, nil
				continue
			}
			return regs[i.A]

		case OpRetNL:
			if act == nil || !act.Alive() {
				vmFail("return from a method activation that already exited")
			}
			m.returning = true
			panic(vmReturn{act: act, val: regs[i.A]})

		default:
			vmFailAt(m.g.CallPos(), "internal error: unknown opcode %s", i.Op)
		}
		pc++
	}
}
