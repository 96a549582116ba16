package main

import (
	"sort"
	"sync"
	"time"
)

// Tracing from outside: every span is recorded by the harness around a
// public call into a layer — nothing is added inside the program. Spans
// stay in memory and are written to bench/out/trace-<workload>.json when
// the traced pass ends.

// span is one timed call. Start and End are seconds since the tracer was
// created; Parent is the ID of the span that caused it (0 = none).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// tracer collects spans. A nil *tracer is the untraced run: begin returns 0
// and end does nothing, so call sites need no branches.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	rep   int
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// setRep labels the spans that follow with a repetition id.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now, Workload: t.workload, Rep: t.rep})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span{}, t.spans...)
}

// covered is the length of the union of the intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum float64
	end := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}

// spanTotals sums, per span name, the durations and the self times: a
// span's self time is its duration minus the part of its interval that its
// child spans cover (children running concurrently are counted once).
func spanTotals(spans []span) (total, self map[string]float64) {
	total = map[string]float64{}
	self = map[string]float64{}
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(children[s.ID], s.Start, s.End)
	}
	return total, self
}

// countSpans counts the spans with the given name.
func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
