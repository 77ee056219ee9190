package interp

import (
	"selspec/internal/dispatch"
	"selspec/internal/hier"
	"selspec/internal/ir"
)

// This file is the seam between the two execution tiers. The bytecode
// VM (internal/vm) executes compiled register code but runs every
// observable event — dispatch, version selection, profiling, counter
// and cycle accounting, primitive evaluation — through the Interp it
// wraps, via the exported entry points below. That is what makes the
// tree interpreter usable as a differential-testing oracle: both tiers
// share one implementation of everything that is counted, so metric
// blocks are byte-comparable across engines by construction.

// ClassesOf computes the runtime classes of a value slice into buf
// (reusing its storage), for engines that keep a scratch buffer across
// dispatches. The result must be treated as dead after the next call
// that receives it; see DispatchSendClasses for why that is safe here.
func (in *Interp) ClassesOf(vals []Value, buf []*hier.Class) []*hier.Class {
	return in.classesOf(vals, buf)
}

// SelectVersionClasses is the engine-shared core of an ir.VersionSelect
// site: a statically-bound call whose specialized version is chosen at
// run time from the argument classes. Counter and trace behavior is
// identical to the tree interpreter's VersionSelect case.
func (in *Interp) SelectVersionClasses(site *ir.CallSite, m *hier.Method, classes []*hier.Class) *ir.Version {
	in.Counters.VersionSelects++
	in.charge(CostVersionSelect)
	in.record(site, m)
	v := in.C.SelectVersion(m, classes)
	if in.Trace != nil {
		in.trace("vselect", site, v)
	}
	return v
}

// NotePICHit charges a send resolved by an engine-side monomorphic
// inline cache, replaying exactly the front-entry PIC-hit path of
// DispatchSendClasses — including the site PIC's own hit counters, so
// the PIC state and every metric stay identical to a run that took the
// generic path. The caller guarantees the cached tuple is the PIC's
// front entry (the cache is filled only after a PIC hit, when the
// looked-up tuple has just moved to or confirmed the front), so no
// promotion is skipped.
func (in *Interp) NotePICHit(site *ir.CallSite, mth *hier.Method, v *ir.Version) {
	in.Counters.Dispatches++
	pic := in.pics[site.ID]
	pic.Hits++
	pic.M.Hits.Inc()
	in.Counters.PICHits++
	in.charge(CostPICHit)
	in.record(site, mth)
	if in.Trace != nil {
		in.trace("pic-hit", site, v)
	}
}

// NotePICHitAt charges a send resolved by an engine cache's way i
// (i >= 1), replaying Lookup's behind-the-front hit exactly: hit and
// promotion counters plus the PIC's own move-to-front, so the PIC ends
// in the same state the tree tier's lookup would leave it in. The
// engine guarantees its way i mirrors the PIC's entry i.
func (in *Interp) NotePICHitAt(site *ir.CallSite, mth *hier.Method, v *ir.Version, i int) {
	in.Counters.Dispatches++
	in.pics[site.ID].PromoteAt(i)
	in.Counters.PICHits++
	in.charge(CostPICHit)
	in.record(site, mth)
	if in.Trace != nil {
		in.trace("pic-hit", site, v)
	}
}

// SitePIC returns a call site's polymorphic inline cache — nil until
// the site's first dispatch under MechPIC creates it. Engines use it
// to mirror the cache's front entries after a generic dispatch.
func (in *Interp) SitePIC(id int) *dispatch.PIC { return in.pics[id] }

// NoteVersionSelect charges a version-select site whose selection an
// engine-side cache resolved: the counter/charge/record/trace sequence
// of SelectVersionClasses with the (deterministic) table lookup
// skipped.
func (in *Interp) NoteVersionSelect(site *ir.CallSite, m *hier.Method, v *ir.Version) {
	in.Counters.VersionSelects++
	in.charge(CostVersionSelect)
	in.record(site, m)
	if in.Trace != nil {
		in.trace("vselect", site, v)
	}
}

// NoteStaticCall charges a statically-bound call: the counter, the
// cycle cost, and the profile arc, exactly as the tree tier's
// StaticCall case does before invoking the target.
func (in *Interp) NoteStaticCall(site *ir.CallSite, target *ir.Version) {
	in.Counters.StaticCalls++
	in.charge(CostStaticCall)
	in.record(site, target.Method)
}

// NoteInvoke charges a method-version entry: the profile entry record,
// the invoked-version set, the entry counter, the cycle cost and one
// step — the exact sequence the tree tier runs after a version's body
// has been resolved, in the same order relative to any guard trip.
func (in *Interp) NoteInvoke(v *ir.Version, args []Value) {
	if !in.invoked[v] {
		in.invoked[v] = true
	}
	in.NoteInvokeKnown(v, args)
}

// NoteInvokeKnown is NoteInvoke minus the invoked-set insertion, for an
// engine that tracks set membership itself: the VM keeps a noted bit on
// each compiled proc and calls MarkInvoked exactly once, removing a map
// access from every later entry through that proc.
func (in *Interp) NoteInvokeKnown(v *ir.Version, args []Value) {
	if in.Profile != nil && len(args) > 0 {
		var buf [entryClassBuf]*hier.Class
		in.Profile.RecordEntry(v.Method, in.classesOf(args, buf[:0]))
	}
	in.Counters.MethodEntries++
	in.charge(CostMethodEntry)
	in.step()
}

// MarkInvoked records a version in the invoked set (the Figure 6
// dynamic-compilation metric).
func (in *Interp) MarkInvoked(v *ir.Version) { in.invoked[v] = true }

// NoteClosureCall charges a closure invocation (counter, cycle cost,
// one step), matching the tree tier's CallClosure case after argument
// evaluation.
func (in *Interp) NoteClosureCall() {
	in.Counters.ClosureCalls++
	in.charge(CostClosureCall)
	in.step()
}

// CallPrim charges and evaluates one primitive call, matching the tree
// tier's PrimCall case after argument evaluation.
func (in *Interp) CallPrim(p ir.Prim, args []Value) Value {
	in.Counters.PrimOps++
	in.charge(CostPrim)
	return in.evalPrim(p, args)
}

// EvalBin evaluates one binary primitive with the interpreter's exact
// semantics and error messages. Counter charging is the caller's
// responsibility (both tiers charge PrimOps/CostBin before evaluating).
func EvalBin(op ir.BinOp, l, r Value) Value { return evalBin(op, l, r) }

// CheckFieldType enforces a declared field type on a store, raising the
// tree tier's exact RuntimeError on violation.
func (in *Interp) CheckFieldType(cls *hier.Class, idx int, v Value) {
	in.checkFieldType(cls, idx, v)
}

// Charge adds to the abstract cycle counter. The VM uses this for the
// node costs it executes natively (control flow, field access, object
// construction); everything dispatch-related is charged inside the
// shared seams above.
func (in *Interp) Charge(c uint64) { in.charge(c) }

// FlushObs flushes the run-scoped observability totals (send/static/
// step counters) into the attached Metrics, as the tree tier does when
// Run returns. Safe on a nil Obs.
func (in *Interp) FlushObs() { in.Obs.flushRun(in) }

// NewActivation returns a live method activation, the target of
// (possibly non-local) returns.
func NewActivation() *Activation { return &Activation{alive: true} }

// Alive reports whether the activation is still on the call stack.
func (a *Activation) Alive() bool { return a.alive }

// Exit marks the activation dead: returns aimed at it from escaped
// closures now fail instead of unwinding.
func (a *Activation) Exit() { a.alive = false }
