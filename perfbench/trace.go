package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"selspec/internal/obs"
	"selspec/internal/pipeline"
)

// span is one timed call into a layer. Spans of one cell or request
// share Op; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	alloc0 uint64
}

// tracer keeps spans in memory until the run ends. The nil tracer is
// the untraced mode: begin reads no clock and records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// heapAllocs is the process's cumulative heap allocation in bytes. It
// is process-wide, so it is attributed only to spans of sequential
// cells, where nothing else allocates meanwhile.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(t.t0)), alloc0: a})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	a := heapAllocs()
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End = now
	s.Alloc = a - s.alloc0
}

// call runs fn inside a span named name under parent.
func call[T any](t *tracer, op, parent int, name string, fn func() (T, error)) (T, error) {
	i := t.begin(op, name, parent)
	v, err := fn()
	t.end(i)
	return v, err
}

// armStages arms the pipeline's stage observer with a fresh span log
// and returns the function that disarms it and hands back the log. On
// the nil tracer it arms nothing.
func (t *tracer) armStages() (disarm func() []obs.Span) {
	if t == nil {
		return func() []obs.Span { return nil }
	}
	log := obs.NewTracer(0)
	restore := pipeline.SetObserver(pipeline.NewObserver(nil, log))
	return func() []obs.Span {
		restore()
		return log.Spans()
	}
}

// adopt records the stage observer's spans as children of span
// parent, renamed by names (stage → layer). The observer reports
// durations only, so they are laid back to back in arrival order,
// ending where parent ends.
func (t *tracer) adopt(op, parent int, stages []obs.Span, names map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].End
	for _, s := range stages {
		at -= int64(s.D)
	}
	for _, s := range stages {
		name, ok := names[s.Name]
		if !ok {
			name = "stage." + s.Name
		}
		t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: at, End: at + int64(s.D)})
		at += int64(s.D)
	}
}

// layerTotals sums, per span name, self time (duration minus the part
// covered by child spans), allocated bytes and call count.
type layerTotal struct {
	selfNS, allocB int64
	calls          int
}

func (t *tracer) layerTotals() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*layerTotal{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.selfNS += s.End - s.Start - child[i]
		lt.allocB += int64(s.Alloc)
		lt.calls++
	}
	return out
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
