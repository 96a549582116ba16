package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-anywhere instantaneous metric. All methods are nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper edges
// in ascending order; one implicit overflow bucket catches the rest.
// Observe is wait-free (atomic adds only), so 64 workers can hammer one
// histogram while another goroutine snapshots it.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-accumulated
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ExpBuckets returns n bucket bounds growing geometrically from start.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default latency layout: 10 µs to ~3 min in ×2.5
// steps — wide enough for a 3-atom water SCF and a 68-atom fragment's full
// displacement loop on one scale.
var DurationBuckets = ExpBuckets(10e-6, 2.5, 18)

// CountBuckets is the default layout for iteration-count metrics.
var CountBuckets = ExpBuckets(1, 2, 14)

// Registry is a named collection of metrics. Get-or-create lookups take a
// mutex, so hot paths should resolve their instruments once (see Hot);
// the instruments themselves are wait-free. All methods are nil-safe: a
// nil registry returns nil instruments whose methods no-op.
//
// A Registry value is a *view* over shared storage: WithLabel derives a view
// that appends a {key="value"} label set to every instrument name it
// resolves, while recording into the same underlying store. A multi-tenant
// service hands each job a labeled view of the daemon registry, so one
// /metrics snapshot carries per-job series (sched_cache_hits_total{job="7"})
// next to the process-wide ones.
type Registry struct {
	st     *regState
	labels string // rendered label suffix, e.g. `{job="7",tenant="a"}`
}

// regState is the storage shared by a registry and all its label views.
type regState struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{st: &regState{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}}
}

// WithLabel returns a view of r that resolves every instrument under
// name{key="value"} — appended after any labels the view already carries —
// recording into the same shared storage as r. Label views are cheap and
// safe to create concurrently; a nil registry stays nil-safe.
func (r *Registry) WithLabel(key, value string) *Registry {
	if r == nil {
		return nil
	}
	set := key + `="` + value + `"`
	labels := "{" + set + "}"
	if r.labels != "" { // splice into the existing set: {a="b"} → {a="b",c="d"}
		labels = r.labels[:len(r.labels)-1] + "," + set + "}"
	}
	return &Registry{st: r.st, labels: labels}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil || r.st == nil {
		return nil
	}
	name += r.labels
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	c := r.st.counters[name]
	if c == nil {
		c = &Counter{}
		r.st.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil || r.st == nil {
		return nil
	}
	name += r.labels
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	g := r.st.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.st.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later callers inherit the original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil || r.st == nil {
		return nil
	}
	name += r.labels
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	h := r.st.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.st.hists[name] = h
	}
	return h
}

// HistSnapshot is a point-in-time copy of one histogram.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last is the overflow bucket
	Count  int64
	Sum    float64
}

// Quantile returns the q-quantile (0 < q < 1) estimated by linear
// interpolation inside the containing bucket. The overflow bucket reports
// its lower edge. An empty histogram reports 0.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		if float64(cum+c) >= rank {
			if i == len(h.Bounds) { // overflow bucket
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a whole registry.
type Snapshot struct {
	At       time.Time
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
}

// Snapshot copies every metric at one instant — including the series of
// every label view sharing this registry's storage. Counters and histogram
// totals are each internally consistent (atomic loads); the snapshot as a
// whole is not a global barrier, which is fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{At: time.Now(), Counters: map[string]int64{}, Gauges: map[string]int64{}, Hists: map[string]HistSnapshot{}}
	if r == nil || r.st == nil {
		return s
	}
	r.st.mu.Lock()
	counters := make(map[string]*Counter, len(r.st.counters))
	for k, v := range r.st.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.st.gauges))
	for k, v := range r.st.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.st.hists))
	for k, v := range r.st.hists {
		hists[k] = v
	}
	r.st.mu.Unlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		hs := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
		for i := range h.counts {
			c := h.counts[i].Load()
			hs.Counts[i] = c
			hs.Count += c
		}
		hs.Sum = math.Float64frombits(h.sumBits.Load())
		s.Hists[k] = hs
	}
	return s
}

// WriteText dumps the snapshot in a flat, grep-friendly text form:
//
//	<name> <value>                      counters and gauges
//	<name>_count / _sum / _p50/_p95/_p99  histograms
//
// Names are sorted, so successive dumps diff cleanly.
func (s Snapshot) WriteText(w io.Writer) error {
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Hists[k]
		_, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %.9g\n%s_p50 %.6g\n%s_p95 %.6g\n%s_p99 %.6g\n",
			k, h.Count, k, h.Sum, k, h.Quantile(0.50), k, h.Quantile(0.95), k, h.Quantile(0.99))
		if err != nil {
			return err
		}
	}
	return nil
}
