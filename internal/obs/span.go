// Package obs is the runtime's zero-dependency observability layer: a
// hierarchical span tracer (run → fragment → attempt → DFPT phase) with a
// lock-cheap sharded recorder and Chrome trace_event export, a metrics
// registry (counters, gauges, fixed-bucket histograms) snapshotable at any
// instant, and the straggler analytics that turn the spans into the
// per-phase percentiles and top-K slowest-fragment tables the paper's
// load-balancing story is built on (Table I, Fig. 9). Everything is nil-safe: a zero
// Scope, nil Tracer, or nil Registry disables an instrumentation site at
// the cost of one branch, so the hot paths carry no conditional plumbing.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Arg is one span annotation. Values are int64 only — spans annotate
// fragment ids, atom counts, attempt and iteration numbers, never strings —
// which keeps a record allocation-free beyond its slice.
type Arg struct {
	Key string
	Val int64
}

// A returns an Arg; it exists so call sites read as obs.A("frag", 3).
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// SpanRecord is one finished span as stored by the tracer and as
// reconstructed from a Chrome trace by ReadChromeTrace.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 = root
	Track  int32  // Chrome tid; groups spans by leader lane
	Name   string
	Cat    string
	Start  time.Duration // offset from the tracer epoch
	Dur    time.Duration
	Args   []Arg
}

// Arg returns the value of the named argument and whether it is present.
func (r SpanRecord) Arg(key string) (int64, bool) {
	for _, a := range r.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// spanShards is the recorder fan-out. Completions hash across shards by
// span id, so 64 workers finishing spans concurrently rarely collide on a
// mutex.
const spanShards = 32

// DefaultMaxSpans bounds tracer memory: past it, completed spans are
// counted as dropped instead of stored (~100 B each; 2M ≈ 200 MB worst
// case).
const DefaultMaxSpans = 2 << 20

// chunkSpans is the shard chunk size. Shards store completed spans in
// fixed-capacity chunks instead of one growing slice: appends never copy
// old records, retired chunks are never garbage, and the GC never rescans
// a multi-hundred-MB contiguous span array.
const chunkSpans = 512

type spanShard struct {
	mu   sync.Mutex
	done [][]SpanRecord // filled span chunks
	cur  []SpanRecord   // active span chunk (cap chunkSpans)
}

// put appends one span record to the shard's chunked storage. Caller holds mu.
func (sh *spanShard) put(rec SpanRecord) {
	if len(sh.cur) == cap(sh.cur) {
		if sh.cur != nil {
			sh.done = append(sh.done, sh.cur)
		}
		sh.cur = make([]SpanRecord, 0, chunkSpans)
	}
	sh.cur = append(sh.cur, rec)
}

// Tracer records hierarchical spans. All methods are safe on a nil Tracer
// (they no-op), safe for concurrent use, and cheap enough for per-DFPT-cycle
// recording: one clock read at Begin, one at End, and a sharded append.
type Tracer struct {
	epoch    time.Time
	nextID   atomic.Uint64
	recorded atomic.Int64
	dropped  atomic.Int64
	maxSpans int64
	shards   [spanShards]spanShard
}

// NewTracer returns a tracer whose epoch is now and whose capacity is
// DefaultMaxSpans.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), maxSpans: DefaultMaxSpans}
}

// Since returns the tracer-epoch offset of an absolute time.
func (t *Tracer) Since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// Span is an in-flight span. End completes it; a nil Span (from a nil
// tracer) ends as a no-op, so call sites never branch.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	track  int32
	name   string
	cat    string
	start  time.Duration
	args   []Arg
}

// ID returns the span's id (0 for a nil span), usable as a parent reference.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Begin opens a span under parent (nil = root) on the parent's track.
func (t *Tracer) Begin(parent *Span, name, cat string, args ...Arg) *Span {
	var track int32
	if parent != nil {
		track = parent.track
	}
	return t.BeginOn(track, parent, name, cat, args...)
}

// BeginOn opens a span on an explicit track (the trace viewer's tid) —
// leaders and workers each get their own lane.
func (t *Tracer) BeginOn(track int32, parent *Span, name, cat string, args ...Arg) *Span {
	if t == nil {
		return nil
	}
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	return &Span{
		t:      t,
		id:     t.nextID.Add(1),
		parent: pid,
		track:  track,
		name:   name,
		cat:    cat,
		start:  time.Since(t.epoch),
		args:   args,
	}
}

// SetArg attaches an argument discovered mid-span (e.g. an iteration count
// known only at convergence).
func (s *Span) SetArg(key string, val int64) {
	if s == nil {
		return
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
}

// End completes the span, appending it to the recorder. Extra args are
// attached before recording.
func (s *Span) End(args ...Arg) {
	if s == nil {
		return
	}
	t := s.t
	end := time.Since(t.epoch)
	if len(args) > 0 {
		s.args = append(s.args, args...)
	}
	t.append(SpanRecord{
		ID: s.id, Parent: s.parent, Track: s.track,
		Name: s.name, Cat: s.cat,
		Start: s.start, Dur: end - s.start,
		Args: s.args,
	})
}

// Record appends an already-measured span without an intermediate Span
// object — the path used by hot sites that time their own boundaries.
// It returns the new span's id for use as a parent.
func (t *Tracer) Record(parent uint64, track int32, name, cat string, start, dur time.Duration, args ...Arg) uint64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.append(SpanRecord{
		ID: id, Parent: parent, Track: track,
		Name: name, Cat: cat, Start: start, Dur: dur, Args: args,
	})
	return id
}

func (t *Tracer) append(rec SpanRecord) {
	if t.recorded.Add(1) > t.maxSpans {
		t.recorded.Add(-1)
		t.dropped.Add(1)
		return
	}
	sh := &t.shards[rec.ID%spanShards]
	sh.mu.Lock()
	sh.put(rec)
	sh.mu.Unlock()
}

// Dropped reports spans discarded by the capacity backstop.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Snapshot returns all completed spans sorted by start time. It is safe
// concurrently with recording; spans completing during the snapshot may or
// may not be included.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	out := make([]SpanRecord, 0, t.recorded.Load())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, chunk := range sh.done {
			out = append(out, chunk...)
		}
		out = append(out, sh.cur...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].ID < out[b].ID
	})
	return out
}
