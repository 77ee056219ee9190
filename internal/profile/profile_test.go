package profile

import (
	"fmt"
	"strings"
	"testing"

	"selspec/internal/hier"
	"selspec/internal/ir"
	"selspec/internal/lang"
)

const src = `
class A
class B isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method f(x@A) { x.m(); x.m(); }
method main() { f(new A()); f(new B()); }
`

func load(t *testing.T) *ir.Program {
	t.Helper()
	p, err := ir.Lower(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func methods(t *testing.T, p *ir.Program) (mA, mB, f *hier.Method) {
	t.Helper()
	for _, m := range p.H.Methods() {
		switch {
		case m.GF.Name == "m" && m.Specs[0].Name == "A":
			mA = m
		case m.GF.Name == "m" && m.Specs[0].Name == "B":
			mB = m
		case m.GF.Name == "f":
			f = m
		}
	}
	return
}

func TestRecordAndQuery(t *testing.T) {
	p := load(t)
	mA, mB, f := methods(t, p)
	cg := NewCallGraph(p)
	s0, s1 := p.Bodies[f].Sites[0], p.Bodies[f].Sites[1]

	cg.Record(s0, mA, 5)
	cg.Record(s0, mA, 2) // accumulates
	cg.Record(s0, mB, 3)
	cg.Record(s1, mB, 7)

	if cg.Len() != 3 {
		t.Fatalf("Len = %d", cg.Len())
	}
	if cg.TotalWeight() != 17 {
		t.Fatalf("TotalWeight = %d", cg.TotalWeight())
	}
	arcs := cg.Arcs()
	if len(arcs) != 3 || arcs[0].Weight != 7 && arcs[0].Weight != 5+2 {
		t.Fatalf("arcs = %v", arcs)
	}
	// Deterministic order: by (site, callee).
	if arcs[0].Site != s0 || arcs[0].Callee != mA || arcs[0].Weight != 7 {
		t.Errorf("first arc = %v", arcs[0])
	}

	out := cg.OutArcs(f)
	if len(out) != 3 {
		t.Errorf("OutArcs(f) = %d", len(out))
	}
	in := cg.InArcs(mB)
	if len(in) != 2 {
		t.Errorf("InArcs(mB) = %d", len(in))
	}
	site := cg.SiteArcs(s0)
	if len(site) != 2 {
		t.Errorf("SiteArcs(s0) = %d", len(site))
	}
	if got := arcs[0].Caller(); got != f {
		t.Errorf("Caller = %v", got)
	}
	if s := arcs[0].String(); !strings.Contains(s, "f(@A)") || !strings.Contains(s, "m(@A)") {
		t.Errorf("String = %q", s)
	}
}

func TestMerge(t *testing.T) {
	p := load(t)
	mA, _, f := methods(t, p)
	s0 := p.Bodies[f].Sites[0]

	a := NewCallGraph(p)
	b := NewCallGraph(p)
	a.Record(s0, mA, 5)
	b.Record(s0, mA, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.TotalWeight() != 12 {
		t.Fatalf("merged weight = %d", a.TotalWeight())
	}

	other := load(t)
	c := NewCallGraph(other)
	if err := a.Merge(c); err == nil {
		t.Fatal("merging call graphs across programs should fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := load(t)
	mA, mB, f := methods(t, p)
	cg := NewCallGraph(p)
	cg.Record(p.Bodies[f].Sites[0], mA, 1234)
	cg.Record(p.Bodies[f].Sites[1], mB, 999)

	data, err := cg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back := NewCallGraph(p)
	if err := back.UnmarshalInto(data); err != nil {
		t.Fatal(err)
	}
	if back.Len() != cg.Len() || back.TotalWeight() != cg.TotalWeight() {
		t.Fatalf("round trip lost arcs: %d/%d", back.Len(), back.TotalWeight())
	}
	a1, a2 := cg.Arcs(), back.Arcs()
	for i := range a1 {
		if a1[i].Site != a2[i].Site || a1[i].Callee != a2[i].Callee || a1[i].Weight != a2[i].Weight {
			t.Errorf("arc %d differs: %v vs %v", i, a1[i], a2[i])
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	p := load(t)
	cg := NewCallGraph(p)
	cases := []struct{ data, sub string }{
		{`{bad json`, "profile:"},
		{`{"version": 99, "arcs": []}`, "unsupported format version"},
		{`{"version": 1, "arcs": [{"site": 999, "callee": 0, "weight": 1}]}`, "site 999 out of range"},
		{`{"version": 1, "arcs": [{"site": 0, "callee": 999, "weight": 1}]}`, "method 999 out of range"},
		{`{"version": 1, "arcs": [{"site": 0, "callee": 0, "weight": -5}]}`, "negative weight"},
		{`{"version": 1, "arcs": [{"site": 0, "callee": 0, "weight": 9223372036854775807}, {"site": 0, "callee": 0, "weight": 1}]}`,
			"weight overflow on duplicate arc"},
		{`{"version": 1, "entries": [{"method": 999, "overflow": true}]}`, "entry method 999 out of range"},
	}
	for _, c := range cases {
		err := cg.UnmarshalInto([]byte(c.data))
		if err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("UnmarshalInto(%q) err = %v, want %q", c.data, err, c.sub)
		}
	}
}

// TestUnmarshalCorruptEntries covers the entry-table validation that
// needs real method/class IDs from the bound program, so the inputs are
// built with Sprintf rather than written as literals.
func TestUnmarshalCorruptEntries(t *testing.T) {
	p := load(t)
	mA, _, _ := methods(t, p) // m(x@A): arity 1
	cases := []struct{ name, data, sub string }{
		{"arity too wide",
			fmt.Sprintf(`{"version": 1, "entries": [{"method": %d, "tuples": [[0, 0]]}]}`, mA.ID),
			"tuple arity 2 does not match"},
		{"arity too narrow",
			fmt.Sprintf(`{"version": 1, "entries": [{"method": %d, "tuples": [[]]}]}`, mA.ID),
			"tuple arity 0 does not match"},
		{"class out of range",
			fmt.Sprintf(`{"version": 1, "entries": [{"method": %d, "tuples": [[999]]}]}`, mA.ID),
			"entry class 999 out of range"},
		{"duplicate entry",
			fmt.Sprintf(`{"version": 1, "entries": [{"method": %d, "overflow": true}, {"method": %d, "tuples": [[0]]}]}`, mA.ID, mA.ID),
			"duplicate entry for method"},
	}
	for _, c := range cases {
		cg := NewCallGraph(p)
		err := cg.UnmarshalInto([]byte(c.data))
		if err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("%s: UnmarshalInto err = %v, want %q", c.name, err, c.sub)
		}
	}
}

// Duplicate arcs with small weights are tolerated (Record accumulates,
// as it does for live profiling); only an accumulation that would wrap
// int64 is rejected.
func TestUnmarshalDuplicateArcsAccumulate(t *testing.T) {
	p := load(t)
	cg := NewCallGraph(p)
	data := `{"version": 1, "arcs": [{"site": 0, "callee": 0, "weight": 4}, {"site": 0, "callee": 0, "weight": 3}]}`
	if err := cg.UnmarshalInto([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if cg.Len() != 1 || cg.TotalWeight() != 7 {
		t.Fatalf("Len = %d, TotalWeight = %d, want 1 arc of weight 7", cg.Len(), cg.TotalWeight())
	}
}

// Entries (tuples and the overflow marker) survive a marshal/unmarshal
// round trip alongside the arcs.
func TestEntriesRoundTrip(t *testing.T) {
	p := load(t)
	mA, mB, f := methods(t, p)
	var clsA *hier.Class
	for _, c := range p.H.Classes() {
		if c.Name == "A" {
			clsA = c
		}
	}
	if clsA == nil {
		t.Fatal("class A not found")
	}
	cg := NewCallGraph(p)
	cg.Record(p.Bodies[f].Sites[0], mA, 10)
	cg.RecordEntry(mA, []*hier.Class{clsA})
	cg.entries[mB.ID].overflow = true

	data, err := cg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back := NewCallGraph(p)
	if err := back.UnmarshalInto(data); err != nil {
		t.Fatal(err)
	}
	ts := back.Entries(mA)
	if ts == nil || len(ts.Tuples) != 1 || ts.Overflow {
		t.Fatalf("Entries(mA) = %+v", ts)
	}
	if ts := back.Entries(mB); ts == nil || !ts.Overflow {
		t.Fatalf("Entries(mB) = %+v, want overflow marker", ts)
	}
}

func TestGlobalInitArcCallerNil(t *testing.T) {
	srcG := `
class A
method m(x@A) { 1; }
var g := m(new A());
method main() { g; }
`
	p, err := ir.Lower(lang.MustParse(srcG))
	if err != nil {
		t.Fatal(err)
	}
	cg := NewCallGraph(p)
	var site *ir.CallSite
	for _, s := range p.Sites {
		if s.Caller == nil {
			site = s
		}
	}
	if site == nil {
		t.Fatal("no global-init site found")
	}
	cg.Record(site, p.H.Methods()[0], 3)
	a := cg.Arcs()[0]
	if a.Caller() != nil {
		t.Error("global-init arc should have nil caller")
	}
	if !strings.Contains(a.String(), "<global>") {
		t.Errorf("String = %q", a.String())
	}
}
