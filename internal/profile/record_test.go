package profile

import (
	"reflect"
	"testing"

	"selspec/internal/hier"
)

// Class IDs that agree in their low 16 bits are distinct tuples: the
// entry key encodes the full ID, so neither sample shadows the other.
func TestRecordEntryFullClassID(t *testing.T) {
	p := load(t)
	mA, _, _ := methods(t, p)
	cg := NewCallGraph(p)
	cg.RecordEntry(mA, []*hier.Class{{ID: 1}})
	cg.RecordEntry(mA, []*hier.Class{{ID: 65537}})
	ts := cg.Entries(mA)
	if want := [][]int{{1}, {65537}}; ts == nil || ts.Overflow || !reflect.DeepEqual(ts.Tuples, want) {
		t.Fatalf("Entries(mA) = %+v, want tuples %v", ts, want)
	}
}

// Entries lists tuples in numeric order of their class IDs, the order
// Wire.Sort gives a hand-built profile, also past one byte of ID.
func TestEntriesNumericOrder(t *testing.T) {
	p := load(t)
	_, _, f := methods(t, p)
	cg := NewCallGraph(p)
	for _, id := range []int{256, 1, 300, 2} {
		cg.RecordEntry(f, []*hier.Class{{ID: id}})
	}
	want := [][]int{{1}, {2}, {256}, {300}}
	if got := cg.Entries(f).Tuples; !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries(f).Tuples = %v, want %v", got, want)
	}
}

// A sample holds up to MaxTupleSample distinct tuples, each found
// again when re-recorded; one more distinct tuple overflows it.
func TestRecordEntrySampleBound(t *testing.T) {
	p := load(t)
	mA, _, _ := methods(t, p)
	cg := NewCallGraph(p)
	for pass := 0; pass < 2; pass++ {
		for id := 0; id < MaxTupleSample; id++ {
			cg.RecordEntry(mA, []*hier.Class{{ID: id}})
		}
	}
	if ts := cg.Entries(mA); ts.Overflow || len(ts.Tuples) != MaxTupleSample {
		t.Fatalf("after re-recording %d tuples: overflow %v, %d tuples", MaxTupleSample, ts.Overflow, len(ts.Tuples))
	}
	cg.RecordEntry(mA, []*hier.Class{{ID: MaxTupleSample}})
	if ts := cg.Entries(mA); !ts.Overflow || ts.Tuples != nil {
		t.Fatalf("one tuple past the bound: overflow %v, %d tuples", ts.Overflow, len(ts.Tuples))
	}
}

// Recording onto an existing arc and an already-seen tuple is the
// training run's hot path: it must not allocate.
func TestRecordZeroAlloc(t *testing.T) {
	p := load(t)
	mA, mB, f := methods(t, p)
	s0 := p.Bodies[f].Sites[0]
	cls := p.H.Classes()
	cg := NewCallGraph(p)
	cg.Record(s0, mA, 1)
	cg.Record(s0, mB, 1)
	args := []*hier.Class{cls[0]}
	cg.RecordEntry(mA, args)

	if n := testing.AllocsPerRun(1000, func() {
		cg.Record(s0, mB, 1)
	}); n != 0 {
		t.Errorf("Record on an existing arc allocates %v objects/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		cg.RecordEntry(mA, args)
	}); n != 0 {
		t.Errorf("RecordEntry on a seen tuple allocates %v objects/op", n)
	}
	if cg.Len() != 2 || len(cg.Entries(mA).Tuples) != 1 {
		t.Fatalf("Len = %d, tuples = %v", cg.Len(), cg.Entries(mA).Tuples)
	}
}
