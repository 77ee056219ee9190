// Package profile implements the weighted program call graph the
// selective specialization algorithm consumes: for each call site, the
// set of methods invoked and the number of times each was invoked
// (paper §3: Caller(arc), Callee(arc), CallSite(arc), Weight(arc)).
//
// Profiles are gathered by an instrumented interpreter run and can be
// persisted to JSON, mirroring the paper's "persistent internal
// database of profile information" (§3.7.2).
package profile

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"selspec/internal/hier"
	"selspec/internal/ir"
)

// Arc is one weighted call-graph edge. A call site can have multiple
// arcs (one per callee method observed) due to dynamic dispatching.
type Arc struct {
	Site   *ir.CallSite
	Callee *hier.Method
	Weight int64
}

// Caller returns the method lexically containing the arc's call site
// (nil for sends in global initializers).
func (a *Arc) Caller() *hier.Method { return a.Site.Caller }

func (a *Arc) String() string {
	caller := "<global>"
	if a.Caller() != nil {
		caller = a.Caller().Name()
	}
	return fmt.Sprintf("%s --%d--> %s [site#%d]", caller, a.Weight, a.Callee.Name(), a.Site.ID)
}

// MaxTupleSample bounds the number of distinct argument class tuples
// recorded per method; beyond it the sample is marked overflowed and
// treated as "anything was seen" (§3.2: "it is likely to be more
// expensive to gather profiles of argument tuples than simple call arc
// and count information").
const MaxTupleSample = 128

// TupleSample is the set of distinct argument class-ID tuples observed
// for one method during a profiling run — the paper's §3.2 extension
// for pruning never-invoked combined specializations.
type TupleSample struct {
	Tuples   [][]int
	Overflow bool
}

// CallGraph is a weighted dynamic call graph, optionally augmented with
// per-method argument-tuple samples.
//
// Storage is dense, because recording runs once per dispatched call and
// once per method entry of the training run: arcs are kept per call
// site, indexed by CallSite.ID (lowering numbers sites densely), each
// site holding its few callees ordered by method ID; tuple samples are
// indexed by Method.ID, each a map from a tuple's key to its class
// IDs. Recording onto an existing arc is an index and a short scan;
// recording an already-seen tuple is an index and a map probe with a
// key built on the stack. Neither allocates.
type CallGraph struct {
	prog    *ir.Program
	sites   [][]*Arc   // by CallSite.ID; each ordered by callee ID
	n       int        // distinct arcs
	entries []tupleSet // by Method.ID
}

// tupleSet is one method's sample: its distinct tuples, keyed by
// tupleKey.
type tupleSet struct {
	seen     map[string][]int
	overflow bool
}

func (ts *tupleSet) recorded() bool { return len(ts.seen) > 0 || ts.overflow }

// NewCallGraph returns an empty call graph for the program.
func NewCallGraph(p *ir.Program) *CallGraph {
	g := &CallGraph{prog: p}
	g.reset()
	return g
}

// reset empties the graph, sizing its tables for the bound program.
// Like the interpreter's PIC and the VM's inline-cache tables, they
// assume every recorded site and method belongs to that program.
func (g *CallGraph) reset() {
	g.sites = make([][]*Arc, len(g.prog.Sites))
	g.n = 0
	g.entries = make([]tupleSet, len(g.prog.H.Methods()))
}

// tupleKeyBuf sizes the stack buffer RecordEntry builds its key in:
// 8 bytes per class ID covers arity 8 without touching the heap.
const tupleKeyBuf = 64

// tupleKey appends the key of a tuple to buf. A key holds each full
// class ID in 8 bytes, so equal tuples and only equal tuples share a
// key.
func tupleKey(buf []byte, classes []*hier.Class) []byte {
	for _, c := range classes {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c.ID))
	}
	return buf
}

// RecordEntry records one method invocation's argument classes.
func (g *CallGraph) RecordEntry(m *hier.Method, classes []*hier.Class) {
	ts := &g.entries[m.ID]
	if ts.overflow {
		return
	}
	var buf [tupleKeyBuf]byte
	key := tupleKey(buf[:0], classes)
	if _, ok := ts.seen[string(key)]; ok {
		return
	}
	if len(ts.seen) >= MaxTupleSample {
		*ts = tupleSet{overflow: true}
		return
	}
	if ts.seen == nil {
		ts.seen = map[string][]int{}
	}
	ids := make([]int, len(classes))
	for i, c := range classes {
		ids[i] = c.ID
	}
	ts.seen[string(key)] = ids
}

// Entries returns the argument-tuple sample for a method, or nil when
// none was recorded. Tuples are ordered lexicographically by class ID.
func (g *CallGraph) Entries(m *hier.Method) *TupleSample {
	ts := &g.entries[m.ID]
	if !ts.recorded() {
		return nil
	}
	out := &TupleSample{Overflow: ts.overflow}
	for _, ids := range ts.seen {
		out.Tuples = append(out.Tuples, slices.Clone(ids))
	}
	sort.Slice(out.Tuples, func(i, j int) bool { return lessTuple(out.Tuples[i], out.Tuples[j]) })
	return out
}

// Program returns the program the graph was built against.
func (g *CallGraph) Program() *ir.Program { return g.prog }

// find returns the arc (site → callee) by IDs, or nil.
func (g *CallGraph) find(siteID, calleeID int) *Arc {
	for _, a := range g.sites[siteID] {
		if a.Callee.ID == calleeID {
			return a
		}
	}
	return nil
}

// Record adds weight n to the arc (site → callee).
func (g *CallGraph) Record(site *ir.CallSite, callee *hier.Method, n int64) {
	if a := g.find(site.ID, callee.ID); a != nil {
		a.Weight += n
		return
	}
	arcs := g.sites[site.ID]
	i := sort.Search(len(arcs), func(i int) bool { return arcs[i].Callee.ID > callee.ID })
	g.sites[site.ID] = slices.Insert(arcs, i, &Arc{Site: site, Callee: callee, Weight: n})
	g.n++
}

// Len returns the number of distinct arcs.
func (g *CallGraph) Len() int { return g.n }

// TotalWeight sums all arc weights.
func (g *CallGraph) TotalWeight() int64 {
	var t int64
	for _, arcs := range g.sites {
		for _, a := range arcs {
			t += a.Weight
		}
	}
	return t
}

// Arcs returns all arcs ordered by (site, callee) for deterministic
// iteration.
func (g *CallGraph) Arcs() []*Arc {
	out := make([]*Arc, 0, g.n)
	for _, arcs := range g.sites {
		out = append(out, arcs...)
	}
	return out
}

// OutArcs returns arcs whose caller is m, ordered deterministically.
func (g *CallGraph) OutArcs(m *hier.Method) []*Arc {
	var out []*Arc
	for _, arcs := range g.sites {
		for _, a := range arcs {
			if a.Caller() == m {
				out = append(out, a)
			}
		}
	}
	return out
}

// InArcs returns arcs whose callee is m, ordered deterministically.
func (g *CallGraph) InArcs(m *hier.Method) []*Arc {
	var out []*Arc
	for _, arcs := range g.sites {
		for _, a := range arcs {
			if a.Callee == m {
				out = append(out, a)
			}
		}
	}
	return out
}

// SiteArcs returns the arcs leaving one call site.
func (g *CallGraph) SiteArcs(site *ir.CallSite) []*Arc {
	var out []*Arc
	for _, a := range g.sites[site.ID] {
		if a.Site == site {
			out = append(out, a)
		}
	}
	return out
}

// Merge adds every arc of other into g (same program required). Arc
// weights are summed with the same int64 overflow guard UnmarshalInto
// applies to duplicate arcs: a merge that would wrap errors before
// touching g, so a poisoned aggregate can never come out of repeated
// merging — the failure mode a long-lived profile database would
// otherwise hit first.
func (g *CallGraph) Merge(other *CallGraph) error {
	if other.prog != g.prog {
		return fmt.Errorf("profile: cannot merge call graphs from different programs")
	}
	// Validate the whole merge before applying any of it, so an
	// overflow leaves g untouched rather than partially merged.
	arcs := other.Arcs()
	for _, a := range arcs {
		if ex := g.find(a.Site.ID, a.Callee.ID); ex != nil && ex.Weight > math.MaxInt64-a.Weight {
			return fmt.Errorf("profile: weight overflow merging arc %d->%d", a.Site.ID, a.Callee.ID)
		}
	}
	for _, a := range arcs {
		g.Record(a.Site, a.Callee, a.Weight)
	}
	return nil
}
