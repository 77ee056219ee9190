package vm

import (
	"fmt"

	"selspec/internal/hier"
	"selspec/internal/interp"
	"selspec/internal/ir"
	"selspec/internal/opt"
)

// CompileError reports an IR construct the bytecode compiler does not
// handle. The driver treats it as "fall back to the tree tier"; it can
// only arise for IR node types added after this compiler was written.
type CompileError struct {
	Node ir.Node
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("vm: unsupported IR node %T", e.Node)
}

// Module is the compiled form of one opt.Compiled: procs for every
// method version, closure body and initializer thunk. Version procs are
// compiled eagerly for bodies that exist at construction time and
// lazily for versions the lazy configurations create mid-run; the
// module is single-goroutine state, like the Interp it executes under.
type Module struct {
	c           *opt.Compiled
	procs       map[*ir.Version]*Proc
	closures    map[*ir.ClosureCode]*Proc
	globalInits []*Proc
	fieldInits  map[*hier.Class][]*Proc
}

func newModule(c *opt.Compiled) (*Module, error) {
	mod := &Module{
		c:          c,
		procs:      map[*ir.Version]*Proc{},
		closures:   map[*ir.ClosureCode]*Proc{},
		fieldInits: map[*hier.Class][]*Proc{},
	}
	for i, init := range c.GlobalInits {
		p, err := mod.compile(fmt.Sprintf("<global#%d>", i), KindInit, init, 0)
		if err != nil {
			return nil, err
		}
		mod.globalInits = append(mod.globalInits, p)
	}
	for cls, inits := range c.FieldInits {
		ps := make([]*Proc, len(inits))
		for i, init := range inits {
			if init == nil {
				continue
			}
			p, err := mod.compile(fmt.Sprintf("<%s.%s>", cls.Name, cls.Fields[i].Name), KindInit, init, 0)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		mod.fieldInits[cls] = ps
	}
	// Every version whose body exists now (eager configurations compile
	// all bodies up front) is compiled here, so an unsupported construct
	// is detected before the run starts and the driver can fall back to
	// the tree tier with no side effects. Lazy configurations hand out
	// nil bodies until first invocation; those compile in Machine.proc.
	for m := range c.Prog.Bodies {
		for _, v := range c.VersionsOf(m) {
			if v.Body != nil {
				if _, err := mod.version(v); err != nil {
					return nil, err
				}
			}
		}
	}
	return mod, nil
}

// version compiles (and caches) the proc for one method version whose
// body is already available.
func (mod *Module) version(v *ir.Version) (*Proc, error) {
	if p, ok := mod.procs[v]; ok {
		return p, nil
	}
	p, err := mod.compile(v.String(), KindMethod, v.Body, v.NumSlots)
	if err != nil {
		return nil, err
	}
	mod.procs[v] = p
	return p, nil
}

// closure compiles (and caches) a closure body. Closure procs are
// compiled when the containing proc compiles its MakeClosure, so by the
// time a closure value exists its proc is in the cache.
func (mod *Module) closure(code *ir.ClosureCode) (*Proc, error) {
	if p, ok := mod.closures[code]; ok {
		return p, nil
	}
	p, err := mod.compile("<closure>", KindClosure, code.Body, code.NumSlots)
	if err != nil {
		return nil, err
	}
	mod.closures[code] = p
	return p, nil
}

func (mod *Module) compile(name string, kind ProcKind, body ir.Node, numSlots int) (*Proc, error) {
	c := &compiler{
		mod: mod,
		p: &Proc{
			Name:     name,
			Kind:     kind,
			NumSlots: numSlots,
		},
		eff:  analyzeEffects(body),
		next: int32(numSlots),
		max:  int32(numSlots),
	}
	dest := c.temp()
	c.into(body, dest)
	c.emit(OpRet, dest, 0, 0, 0)
	if c.err != nil {
		return nil, c.err
	}
	c.p.NumRegs = int(c.max)
	return c.p, nil
}

// compiler builds one Proc. Temporary registers are allocated with a
// stack discipline: save/restore brackets around subexpressions reuse
// registers, and max tracks the high-water mark that sizes the window.
type compiler struct {
	mod  *Module
	p    *Proc
	eff  *effects
	next int32 // next free temp register
	max  int32
	err  error

	constIdx map[constKey]int32
	nameIdx  map[string]int32
}

type constKey struct {
	k interp.Kind
	i int64
	s string
}

func (c *compiler) temp() int32 {
	r := c.next
	c.next++
	if c.next > c.max {
		c.max = c.next
	}
	return r
}

// window allocates n consecutive registers (a call-argument window).
func (c *compiler) window(n int) int32 {
	r := c.next
	c.next += int32(n)
	if c.next > c.max {
		c.max = c.next
	}
	return r
}

func (c *compiler) save() int32        { return c.next }
func (c *compiler) restore(mark int32) { c.next = mark }

func (c *compiler) emit(op Op, a, b, cc, d int32) int32 {
	c.p.Code = append(c.p.Code, Instr{Op: op, A: a, B: b, C: cc, D: d})
	return int32(len(c.p.Code) - 1)
}

// patch points a forward branch emitted at pc to the next instruction.
// OpJump targets live in A; OpBranchFalse targets in B; OpCmpBr in C.
func (c *compiler) patch(pc int32) {
	t := int32(len(c.p.Code))
	switch c.p.Code[pc].Op {
	case OpJump:
		c.p.Code[pc].A = t
	case OpBranchFalse:
		c.p.Code[pc].B = t
	case OpCmpBr, OpCmpBrK, OpCmpBrField:
		c.p.Code[pc].C = t
	default:
		panic("vm: patch on non-branch")
	}
}

func (c *compiler) konst(v interp.Value) int32 {
	if c.constIdx == nil {
		c.constIdx = map[constKey]int32{}
	}
	k := constKey{k: v.K, i: v.I, s: v.S}
	if idx, ok := c.constIdx[k]; ok {
		return idx
	}
	idx := int32(len(c.p.Consts))
	c.p.Consts = append(c.p.Consts, v)
	c.constIdx[k] = idx
	return idx
}

// fieldIC allocates the inline cache of one dynamic field access and
// returns its FieldICs index.
func (c *compiler) fieldIC() int32 {
	c.p.FieldICs = append(c.p.FieldICs, FieldIC{})
	return int32(len(c.p.FieldICs) - 1)
}

func (c *compiler) name(s string) int32 {
	if c.nameIdx == nil {
		c.nameIdx = map[string]int32{}
	}
	if idx, ok := c.nameIdx[s]; ok {
		return idx
	}
	idx := int32(len(c.p.Names))
	c.p.Names = append(c.p.Names, s)
	c.nameIdx[s] = idx
	return idx
}

func constValue(n *ir.Const) interp.Value {
	switch n.Kind {
	case ir.KInt:
		return interp.IntV(n.Int)
	case ir.KStr:
		return interp.StrV(n.Str)
	case ir.KBool:
		return interp.BoolV(n.Bool)
	default:
		return interp.NilV
	}
}

// operand compiles n and returns a register holding its value. Depth-0
// locals are returned as their slot register with no code; everything
// else evaluates into a fresh temporary from the current scope.
func (c *compiler) operand(n ir.Node) int32 {
	if l, ok := n.(*ir.Local); ok && l.Depth == 0 {
		return int32(l.Slot)
	}
	t := c.temp()
	c.into(n, t)
	return t
}

// discard evaluates n for effect only. Statement shapes get dedicated
// effect-only forms so no dead result moves or nil loads reach the hot
// loop bodies; none of the elided instructions (OpMove, OpConst) carry
// counter or cycle effects, so the accounting is unchanged.
func (c *compiler) discard(n ir.Node) {
	switch n := n.(type) {
	case *ir.SetLocal:
		if n.Depth == 0 {
			// The slot is the destination: expr writes it as its final
			// action, no result copy.
			c.into(n.X, int32(n.Slot))
			return
		}

	case *ir.Seq:
		for _, child := range n.Nodes {
			c.discard(child)
		}
		return

	case *ir.If:
		br := c.cond(n.Cond, msgIf)
		c.discard(n.Then)
		if n.Else != nil {
			end := c.emit(OpJump, 0, 0, 0, 0)
			c.patch(br)
			c.discard(n.Else)
			c.patch(end)
		} else {
			c.patch(br)
		}
		return

	case *ir.While:
		loop := int32(len(c.p.Code))
		c.emit(OpStep, 0, 0, 0, 0)
		br := c.cond(n.Cond, msgWhile)
		c.discard(n.Body)
		c.emit(OpJump, loop, 0, 0, 0)
		c.patch(br)
		return

	case *ir.Const:
		return // pure, uncounted: no code

	case *ir.Local:
		if n.Depth == 0 {
			return // pure, uncounted: no code
		}
	}
	mark := c.save()
	t := c.temp()
	c.into(n, t)
	c.restore(mark)
}

// argWindow compiles a call's arguments into a fresh contiguous
// register window and returns its base. The caller restores the scope.
func (c *compiler) argWindow(args []ir.Node) int32 {
	base := c.window(len(args))
	for i, a := range args {
		mark := c.save()
		c.into(a, base+int32(i))
		c.restore(mark)
	}
	return base
}

// captured compiles operand a for an instruction that reads its operand
// registers at execution time — after the nodes in `later` have
// evaluated. A depth-0 local is used in place (its slot register, no
// code) unless the effect analysis says some later node may write that
// slot, in which case the slot's current value is snapshotted into a
// temporary first. Later code cannot touch the temporary (stack
// discipline: subsequent evaluation writes only fresh, higher temps,
// argument windows, and slots), so this preserves the tree tier's
// left-to-right value capture exactly — with a copy only where the
// analysis proves one is needed.
func (c *compiler) captured(a ir.Node, later ...ir.Node) int32 {
	if l, ok := a.(*ir.Local); ok && l.Depth == 0 {
		for _, n := range later {
			if c.eff.mayWriteSlot(n, l.Slot) {
				t := c.temp()
				c.emit(OpMove, t, int32(l.Slot), 0, 0)
				return t
			}
		}
		return int32(l.Slot)
	}
	return c.operand(a)
}

// fieldOp pools the slot/name/operator triple of one fused field/binop
// superinstruction and returns its FieldOps index.
func (c *compiler) fieldOp(gf *ir.GetField, op ir.BinOp) int32 {
	idx := int32(len(c.p.FieldOps))
	c.p.FieldOps = append(c.p.FieldOps, FieldOpRef{Slot: int32(gf.Slot), Name: c.name(gf.Name), Op: op})
	return idx
}

func isCompare(op ir.BinOp) bool {
	switch op {
	case ir.OpLT, ir.OpLE, ir.OpGT, ir.OpGE, ir.OpEQ, ir.OpNE:
		return true
	}
	return false
}

// cond compiles a conditional test, jumping to a (to-be-patched) target
// when the condition is false, and returns the branch pc. Comparison
// Bin conditions fuse into OpCmpBr; everything else evaluates the
// condition value and branches with OpBranchFalse (message kind msg).
// Counter effects are identical either way — and identical to the tree
// tier's evaluate-check-charge-branch sequence.
func (c *compiler) cond(n ir.Node, msg int32) int32 {
	if b, ok := n.(*ir.Bin); ok && isCompare(b.Op) {
		mark := c.save()
		l := c.captured(b.L, b.R)
		if gf, ok := b.R.(*ir.GetField); ok && gf.Slot >= 0 {
			obj := c.operand(gf.Obj)
			pc := c.emit(OpCmpBrField, l, obj, 0, c.fieldOp(gf, b.Op))
			c.restore(mark)
			return pc
		}
		if k, ok := b.R.(*ir.Const); ok {
			pc := c.emit(OpCmpBrK, l, c.konst(constValue(k)), 0, int32(b.Op))
			c.restore(mark)
			return pc
		}
		r := c.operand(b.R)
		pc := c.emit(OpCmpBr, l, r, 0, int32(b.Op))
		c.restore(mark)
		return pc
	}
	mark := c.save()
	t := c.operand(n)
	pc := c.emit(OpBranchFalse, t, 0, msg, 0)
	c.restore(mark)
	return pc
}

// into compiles n so that its value lands in dest. Discipline: dest is
// written only as the final action of n's evaluation (single write per
// executed path), so `slot := expr` can compile expr directly into the
// slot register while expr still reads the slot's old value.
func (c *compiler) into(n ir.Node, dest int32) {
	if c.err != nil {
		return
	}
	switch n := n.(type) {
	case *ir.Const:
		c.emit(OpConst, dest, c.konst(constValue(n)), 0, 0)

	case *ir.Local:
		if n.Depth == 0 {
			if int32(n.Slot) != dest {
				c.emit(OpMove, dest, int32(n.Slot), 0, 0)
			}
			return
		}
		c.emit(OpGetUp, dest, int32(n.Depth), int32(n.Slot), 0)

	case *ir.SetLocal:
		if n.Depth == 0 {
			c.into(n.X, int32(n.Slot))
			if int32(n.Slot) != dest {
				c.emit(OpMove, dest, int32(n.Slot), 0, 0)
			}
			return
		}
		c.into(n.X, dest)
		c.emit(OpSetUp, dest, int32(n.Depth), int32(n.Slot), 0)

	case *ir.Global:
		c.emit(OpGetGlobal, dest, int32(n.Slot), c.name(n.Name), 0)

	case *ir.SetGlobal:
		c.into(n.X, dest)
		c.emit(OpSetGlobal, dest, int32(n.Slot), 0, 0)

	case *ir.GetField:
		mark := c.save()
		obj := c.operand(n.Obj)
		if n.Slot >= 0 {
			c.emit(OpGetField, dest, obj, int32(n.Slot), c.name(n.Name))
		} else {
			c.emit(OpGetFieldDyn, dest, obj, c.fieldIC(), c.name(n.Name))
		}
		c.restore(mark)

	case *ir.SetField:
		mark := c.save()
		// The store reads the object register after the value evaluates;
		// snapshot a slot-resident object the value expression may clobber.
		obj := c.captured(n.Obj, n.X)
		c.into(n.X, dest)
		if n.Slot >= 0 {
			c.emit(OpSetField, obj, dest, int32(n.Slot), c.name(n.Name))
		} else {
			c.emit(OpSetFieldDyn, obj, dest, c.fieldIC(), c.name(n.Name))
		}
		c.restore(mark)

	case *ir.Seq:
		if len(n.Nodes) == 0 {
			c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)
			return
		}
		for _, child := range n.Nodes[:len(n.Nodes)-1] {
			c.discard(child)
		}
		c.into(n.Nodes[len(n.Nodes)-1], dest)

	case *ir.If:
		br := c.cond(n.Cond, msgIf)
		c.into(n.Then, dest)
		end := c.emit(OpJump, 0, 0, 0, 0)
		c.patch(br)
		if n.Else != nil {
			c.into(n.Else, dest)
		} else {
			c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)
		}
		c.patch(end)

	case *ir.While:
		loop := int32(len(c.p.Code))
		c.emit(OpStep, 0, 0, 0, 0)
		br := c.cond(n.Cond, msgWhile)
		c.discard(n.Body)
		c.emit(OpJump, loop, 0, 0, 0)
		c.patch(br)
		c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)

	case *ir.Return:
		if n.X != nil {
			c.into(n.X, dest)
		} else {
			c.emit(OpConst, dest, c.konst(interp.NilV), 0, 0)
		}
		if c.p.Kind == KindMethod {
			// A return lexically inside the method body targets the
			// method's own (live) activation: a direct return.
			c.emit(OpRet, dest, 0, 0, 0)
		} else {
			c.emit(OpRetNL, dest, 0, 0, 0)
		}

	case *ir.New:
		mark := c.save()
		cls := int32(len(c.p.News))
		c.p.News = append(c.p.News, NewRef{Class: n.Class, inits: c.mod.fieldInits[n.Class]})
		// The tree tier charges construction before evaluating field
		// arguments; keep that order so a guard trip lands identically.
		// B records the News index the charge belongs to (ignored by the
		// machine) so the verifier can pair each OpNew with the OpCharge
		// that accounts for it.
		c.emit(OpCharge, int32(interp.CostNewBase+len(n.Class.Fields)), cls, 0, 0)
		base := c.argWindow(n.Args)
		c.emit(OpNew, dest, cls, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.MakeClosure:
		if _, err := c.mod.closure(n.Fn); err != nil {
			c.err = err
			return
		}
		idx := int32(len(c.p.Closures))
		c.p.Closures = append(c.p.Closures, n.Fn)
		c.emit(OpMakeClosure, dest, idx, 0, 0)
		c.p.NeedsFrame = true

	case *ir.CallClosure:
		mark := c.save()
		// The call reads the closure register after the arguments
		// evaluate; snapshot a slot-resident closure they may overwrite.
		fn := c.captured(n.Fn, n.Args...)
		pos := int32(len(c.p.Poss))
		c.p.Poss = append(c.p.Poss, n.Pos)
		c.emit(OpCheckClosure, fn, int32(len(n.Args)), pos, 0)
		base := c.argWindow(n.Args)
		c.emit(OpCallClosure, dest, fn, base, pos)
		c.restore(mark)

	case *ir.Send:
		mark := c.save()
		base := c.argWindow(n.Args)
		site := int32(len(c.p.Sites))
		c.p.Sites = append(c.p.Sites, n.Site)
		c.emit(OpSend, dest, site, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.StaticCall:
		mark := c.save()
		base := c.argWindow(n.Args)
		idx := int32(len(c.p.Statics))
		c.p.Statics = append(c.p.Statics, StaticRef{Site: n.Site, Target: n.Target})
		c.emit(OpStaticCall, dest, idx, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.VersionSelect:
		mark := c.save()
		base := c.argWindow(n.Args)
		idx := int32(len(c.p.VSels))
		c.p.VSels = append(c.p.VSels, VSelRef{Site: n.Site, Method: n.Method})
		c.emit(OpVSelect, dest, idx, base, int32(len(n.Args)))
		c.restore(mark)

	case *ir.Bin:
		mark := c.save()
		// `obj.field <op> x` fuses the field read into the primitive when
		// the right operand is a constant or a depth-0 local, so the
		// observable order — object eval, field charge, bin charge — is
		// the unfused sequence exactly. An in-place slot as the right
		// operand is always safe here: both tiers read the slot after the
		// object expression has evaluated. The mirrored `x <op> obj.field`
		// shape fuses unconditionally: the left operand compiles first,
		// which is already the tree tier's evaluation order.
		if gf, ok := n.L.(*ir.GetField); ok && gf.Slot >= 0 {
			if k, isK := n.R.(*ir.Const); isK {
				obj := c.operand(gf.Obj)
				c.emit(OpFieldBinK, dest, obj, c.konst(constValue(k)), c.fieldOp(gf, n.Op))
				c.restore(mark)
				return
			}
			if l, isL := n.R.(*ir.Local); isL && l.Depth == 0 {
				obj := c.operand(gf.Obj)
				c.emit(OpFieldBin, dest, obj, int32(l.Slot), c.fieldOp(gf, n.Op))
				c.restore(mark)
				return
			}
		}
		l := c.captured(n.L, n.R)
		if k, ok := n.R.(*ir.Const); ok {
			c.emit(OpBinK, dest, l, c.konst(constValue(k)), int32(n.Op))
		} else if gf, ok := n.R.(*ir.GetField); ok && gf.Slot >= 0 {
			obj := c.operand(gf.Obj)
			c.emit(OpBinField, dest, obj, l, c.fieldOp(gf, n.Op))
		} else {
			r := c.operand(n.R)
			c.emit(OpBin, dest, l, r, int32(n.Op))
		}
		c.restore(mark)

	case *ir.Un:
		mark := c.save()
		x := c.operand(n.X)
		if n.Op == ir.OpNot {
			c.emit(OpNot, dest, x, 0, 0)
		} else {
			c.emit(OpNeg, dest, x, 0, 0)
		}
		c.restore(mark)

	case *ir.PrimCall:
		mark := c.save()
		switch {
		case n.Prim == ir.PrimAGet && len(n.Args) == 2:
			a := c.captured(n.Args[0], n.Args[1])
			ix := c.captured(n.Args[1])
			c.emit(OpAGet, dest, a, ix, 0)
		case n.Prim == ir.PrimAPut && len(n.Args) == 3:
			a := c.captured(n.Args[0], n.Args[1], n.Args[2])
			ix := c.captured(n.Args[1], n.Args[2])
			v := c.captured(n.Args[2])
			c.emit(OpAPut, dest, a, ix, v)
		default:
			base := c.argWindow(n.Args)
			c.emit(OpPrim, dest, int32(n.Prim), base, int32(len(n.Args)))
		}
		c.restore(mark)

	case *ir.And:
		// Evaluate the left operand into a temp (never dest: the right
		// operand may still read dest's register, e.g. `b := b && e`).
		mark := c.save()
		l := c.operand(n.L)
		br := c.emit(OpBranchFalse, l, 0, msgAnd, 0)
		c.restore(mark)
		c.into(n.R, dest)
		c.emit(OpCheckBool, dest, 0, msgAnd, 0)
		end := c.emit(OpJump, 0, 0, 0, 0)
		c.patch(br)
		c.emit(OpConst, dest, c.konst(interp.FalseV), 0, 0)
		c.patch(end)

	case *ir.Or:
		mark := c.save()
		l := c.operand(n.L)
		br := c.emit(OpBranchFalse, l, 0, msgOr, 0)
		c.restore(mark)
		// Left was true: result is TrueV.
		c.emit(OpConst, dest, c.konst(interp.TrueV), 0, 0)
		end := c.emit(OpJump, 0, 0, 0, 0)
		c.patch(br)
		c.into(n.R, dest)
		c.emit(OpCheckBool, dest, 0, msgOr, 0)
		c.patch(end)

	default:
		c.err = &CompileError{Node: n}
	}
}
