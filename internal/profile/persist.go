package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"selspec/internal/hier"
)

// Wire is the on-disk / on-the-wire JSON representation of a profile.
// Sites and methods are identified by their dense IDs, which are stable
// for a given source program (lowering assigns them deterministically),
// so a profile gathered once can be reused across many compilations —
// the paper observes profiles "remain fairly constant across different
// inputs" (§3.7.2).
//
// The type is exported because the profile database (internal/profdb)
// stores and aggregates profiles in this program-independent form: the
// database never holds the program IR, only the serving layer that
// validates an upload against its bound program does.
type Wire struct {
	Version int         `json:"version"`
	Arcs    []WireArc   `json:"arcs"`
	Entries []WireEntry `json:"entries,omitempty"`
}

// WireArc is one weighted call-graph edge in wire form.
type WireArc struct {
	Site   int   `json:"site"`
	Callee int   `json:"callee"`
	Weight int64 `json:"weight"`
}

// WireEntry is one method's argument-tuple sample in wire form.
type WireEntry struct {
	Method   int     `json:"method"`
	Tuples   [][]int `json:"tuples,omitempty"`
	Overflow bool    `json:"overflow,omitempty"`
}

// FormatVersion is the wire format version this package reads and
// writes.
const FormatVersion = 1

const formatVersion = FormatVersion

// Marshal renders a Wire in the canonical indented-JSON encoding every
// producer in the repo uses, so two structurally equal profiles are
// byte-identical.
func (w *Wire) Marshal() ([]byte, error) {
	return json.MarshalIndent(w, "", "  ")
}

// MarshalJSON encodes the call graph.
func (g *CallGraph) MarshalJSON() ([]byte, error) {
	return g.Wire().Marshal()
}

// Wire converts the call graph to its wire form: arcs ordered by
// (site, callee), entries ordered by method, tuples in the recorded
// sorted order — the canonical shape MarshalJSON serializes.
func (g *CallGraph) Wire() *Wire {
	ff := &Wire{Version: formatVersion}
	for _, a := range g.Arcs() {
		ff.Arcs = append(ff.Arcs, WireArc{Site: a.Site.ID, Callee: a.Callee.ID, Weight: a.Weight})
	}
	for _, m := range g.prog.H.Methods() {
		if ts := g.Entries(m); ts != nil {
			ff.Entries = append(ff.Entries, WireEntry{Method: m.ID, Tuples: ts.Tuples, Overflow: ts.Overflow})
		}
	}
	return ff
}

// ParseWire decodes a profile's JSON without a program to validate it
// against: only structural checks (well-formed JSON, supported version,
// non-negative weights, sane tuple shapes) run here. Callers that hold
// the program must follow with CallGraph.UnmarshalInto for the full
// referential validation; callers that do not (the profile database)
// rely on the serving layer having done so before handing the bytes
// over.
func ParseWire(data []byte) (*Wire, error) {
	var ff Wire
	if err := json.Unmarshal(data, &ff); err != nil {
		return nil, fmt.Errorf("profile: %v", err)
	}
	if ff.Version != formatVersion {
		return nil, fmt.Errorf("profile: unsupported format version %d", ff.Version)
	}
	for _, fa := range ff.Arcs {
		if fa.Site < 0 || fa.Callee < 0 {
			return nil, fmt.Errorf("profile: negative id on arc %d->%d", fa.Site, fa.Callee)
		}
		if fa.Weight < 0 {
			return nil, fmt.Errorf("profile: negative weight on site %d", fa.Site)
		}
	}
	for _, fe := range ff.Entries {
		if fe.Method < 0 {
			return nil, fmt.Errorf("profile: negative entry method %d", fe.Method)
		}
		for _, ids := range fe.Tuples {
			for _, id := range ids {
				if id < 0 {
					return nil, fmt.Errorf("profile: negative entry class %d", id)
				}
			}
		}
	}
	return &ff, nil
}

// Sort orders the wire form canonically: arcs by (site, callee),
// entries by method, tuples lexicographically. Producers that build a
// Wire by hand call it before Marshal so equality is byte equality.
func (w *Wire) Sort() {
	sort.Slice(w.Arcs, func(i, j int) bool {
		if w.Arcs[i].Site != w.Arcs[j].Site {
			return w.Arcs[i].Site < w.Arcs[j].Site
		}
		return w.Arcs[i].Callee < w.Arcs[j].Callee
	})
	sort.Slice(w.Entries, func(i, j int) bool { return w.Entries[i].Method < w.Entries[j].Method })
	for _, e := range w.Entries {
		sort.Slice(e.Tuples, func(i, j int) bool { return lessTuple(e.Tuples[i], e.Tuples[j]) })
	}
}

func lessTuple(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// UnmarshalInto decodes data into a fresh call graph bound to g's
// program, replacing g's arcs. Profiles cross a file-system boundary,
// so every reference is validated against the bound program before it
// touches graph state: ids in range, weights non-negative and
// non-overflowing under duplicate arcs, tuple arities matching the
// method they claim to sample, one entry per method. A corrupt or
// hostile file yields an error, never a panic or a silently poisoned
// profile.
func (g *CallGraph) UnmarshalInto(data []byte) error {
	var ff Wire
	if err := json.Unmarshal(data, &ff); err != nil {
		return fmt.Errorf("profile: %v", err)
	}
	if ff.Version != formatVersion {
		return fmt.Errorf("profile: unsupported format version %d", ff.Version)
	}
	g.reset()
	methods := g.prog.H.Methods()
	for _, fa := range ff.Arcs {
		if fa.Site < 0 || fa.Site >= len(g.prog.Sites) {
			return fmt.Errorf("profile: site %d out of range (profile from a different program?)", fa.Site)
		}
		if fa.Callee < 0 || fa.Callee >= len(methods) {
			return fmt.Errorf("profile: method %d out of range (profile from a different program?)", fa.Callee)
		}
		if fa.Weight < 0 {
			return fmt.Errorf("profile: negative weight on site %d", fa.Site)
		}
		if a := g.find(fa.Site, fa.Callee); a != nil && a.Weight > math.MaxInt64-fa.Weight {
			return fmt.Errorf("profile: weight overflow on duplicate arc %d->%d", fa.Site, fa.Callee)
		}
		g.Record(g.prog.Sites[fa.Site], methods[fa.Callee], fa.Weight)
	}
	classes := g.prog.H.Classes()
	for _, fe := range ff.Entries {
		if fe.Method < 0 || fe.Method >= len(methods) {
			return fmt.Errorf("profile: entry method %d out of range", fe.Method)
		}
		m := methods[fe.Method]
		if g.entries[m.ID].recorded() {
			return fmt.Errorf("profile: duplicate entry for method %d", fe.Method)
		}
		if fe.Overflow {
			g.entries[m.ID].overflow = true
			continue
		}
		for _, ids := range fe.Tuples {
			if len(ids) != len(m.Specs) {
				return fmt.Errorf("profile: entry tuple arity %d does not match method %d arity %d",
					len(ids), fe.Method, len(m.Specs))
			}
			cs := make([]*hier.Class, len(ids))
			for i, id := range ids {
				if id < 0 || id >= len(classes) {
					return fmt.Errorf("profile: entry class %d out of range", id)
				}
				cs[i] = classes[id]
			}
			g.RecordEntry(m, cs)
		}
	}
	return nil
}
