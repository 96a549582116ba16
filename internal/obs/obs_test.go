package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every instrumentation entry point must be a no-op on zero values:
	// the hot paths run with a zero Scope when observability is off.
	var tr *Tracer
	sp := tr.Begin(nil, "x", "y")
	sp.End()
	sp.SetArg("k", 1)
	tr.Record(0, 0, "a", "b", 0, time.Millisecond)
	if tr.Snapshot() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer should report nothing")
	}
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(5)
	reg.Histogram("h", DurationBuckets).Observe(1)
	if got := reg.Snapshot(); len(got.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
	sc := Scope{}
	if sc.Enabled() {
		t.Fatal("zero scope must be disabled")
	}
	sc2, sp2 := sc.Begin("x", "y")
	sp2.End()
	sc2.RecordSCF(time.Now(), 3, 5, 0)
	sc2.RecordDFPTCycle(time.Now(), [NumPhases]time.Duration{}, 0)
	var fs *FragStats
	fs.AddPhase(PhaseP1, time.Second)
	fs.AddCycles(1)
	fs.AddSCFIters(2)
	if fs.PhaseTotals() != ([NumPhases]time.Duration{}) || fs.Cycles() != 0 {
		t.Fatal("nil FragStats should stay zero")
	}
}

func TestSpanHierarchyAndSnapshot(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(nil, "run", "run")
	child := tr.Begin(root, "frag", "frag", A("frag", 7))
	grand := tr.BeginOn(3, child, "attempt", "sched")
	grand.End(A("ok", 1))
	child.End()
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["frag"].Parent != byName["run"].ID {
		t.Fatal("frag span should parent to run")
	}
	if byName["attempt"].Parent != byName["frag"].ID {
		t.Fatal("attempt span should parent to frag")
	}
	if byName["attempt"].Track != 3 {
		t.Fatalf("attempt track = %d, want 3", byName["attempt"].Track)
	}
	if v, ok := byName["frag"].Arg("frag"); !ok || v != 7 {
		t.Fatalf("frag arg = %d,%v", v, ok)
	}
	if v, ok := byName["attempt"].Arg("ok"); !ok || v != 1 {
		t.Fatal("End args should be recorded")
	}
}

func TestTracerMaxSpans(t *testing.T) {
	tr := NewTracer()
	tr.maxSpans = 10
	for i := 0; i < 25; i++ {
		tr.Begin(nil, "s", "c").End()
	}
	if n := len(tr.Snapshot()); n != 10 {
		t.Fatalf("recorded %d spans, want capacity 10", n)
	}
	if tr.Dropped() != 15 {
		t.Fatalf("dropped %d spans, want 15", tr.Dropped())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10)) // 1,2,4,...,512
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i % 100))
	}
	var reg = NewRegistry()
	_ = reg
	snap := snapshotOne(h)
	if snap.Count != 1000 {
		t.Fatalf("count %d", snap.Count)
	}
	p50 := snap.Quantile(0.5)
	// True median of 0..99 uniform ≈ 49.5; bucketed estimate must land in
	// the right bucket (32, 64].
	if p50 < 32 || p50 > 64 {
		t.Fatalf("p50 = %g, want within (32,64]", p50)
	}
	if m := snap.Sum / float64(snap.Count); math.Abs(m-49.5) > 1e-9 {
		t.Fatalf("mean = %g, want 49.5", m)
	}
}

func snapshotOne(h *Histogram) HistSnapshot {
	r := NewRegistry()
	r.st.hists["x"] = h
	return r.Snapshot().Hists["x"]
}

func TestRegistrySnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat_seconds", DurationBuckets).Observe(0.001)
	if r.Counter("a_total").Value() != 3 {
		t.Fatal("get-or-create must return the same counter")
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a_total 3", "depth -2", "lat_seconds_count 1", "lat_seconds_p50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}
}

func TestChromeTraceRoundtrip(t *testing.T) {
	tr := NewTracer()
	sc := NewScope(tr, nil)
	sc, run := sc.Begin("run", "run")
	frag := tr.Begin(run, "frag", "frag", A("frag", 2), A("atoms", 3))
	att := tr.Begin(frag, "attempt", "sched", A("attempt", 1))
	dsc := sc.WithSpan(att)
	start := time.Now()
	dsc.RecordDFPTCycle(start, [NumPhases]time.Duration{
		PhaseP1: 40 * time.Microsecond, PhaseN1: 10 * time.Microsecond,
		PhaseV1: 20 * time.Microsecond, PhaseH1: 30 * time.Microsecond,
	}, 110*time.Microsecond)
	att.End()
	frag.End()
	run.End()

	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 { // run, frag, attempt, cycle, 4 phases
		t.Fatalf("roundtrip returned %d spans, want 8", len(spans))
	}
	byName := map[string]SpanRecord{}
	var phases []SpanRecord
	for _, s := range spans {
		if s.Cat == "phase" {
			phases = append(phases, s)
			continue
		}
		byName[s.Name] = s
	}
	if len(phases) != 4 {
		t.Fatalf("got %d phase spans, want 4", len(phases))
	}
	cyc := byName["dfpt.cycle"]
	for _, p := range phases {
		if p.Parent != cyc.ID {
			t.Fatalf("phase %s parented to %d, want cycle %d", p.Name, p.Parent, cyc.ID)
		}
	}
	if cyc.Parent != byName["attempt"].ID {
		t.Fatal("cycle should parent to the attempt span")
	}
	if d := byName["dfpt.cycle"].Dur; d != 110*time.Microsecond {
		t.Fatalf("cycle dur = %v, want 110µs", d)
	}

	sum, err := AnalyzeTrace(spans, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fragments != 1 || len(sum.TopK) != 1 {
		t.Fatalf("analyze: fragments=%d topk=%d", sum.Fragments, len(sum.TopK))
	}
	row := sum.TopK[0]
	if row.Frag != 2 || row.Atoms != 3 || row.Cycles != 1 || row.Attempts != 1 {
		t.Fatalf("straggler row = %+v", row)
	}
	if row.Phase[PhaseH1] != 30*time.Microsecond {
		t.Fatalf("h1 sum = %v", row.Phase[PhaseH1])
	}
	if sum.Phases[PhaseN1].P50 != 10*time.Microsecond {
		t.Fatalf("n1 p50 = %v", sum.Phases[PhaseN1].P50)
	}
	var txt bytes.Buffer
	if err := sum.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "top 1 stragglers") {
		t.Fatalf("summary text:\n%s", txt.String())
	}
	var flame bytes.Buffer
	if err := WriteFlame(&flame, spans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flame.String(), "run/frag/attempt/dfpt.cycle/p1") {
		t.Fatalf("flame summary missing path:\n%s", flame.String())
	}
}

// TestRecordDFPTCycleSpans: one recorded cycle is a "dfpt.cycle" span under
// the scope's span with the iter argument AnalyzeTrace reads, and four phase
// children that tile it in execution order (n1, v1, h1, p1); each of the five
// spans counts against DefaultMaxSpans.
func TestRecordDFPTCycleSpans(t *testing.T) {
	tr := NewTracer()
	sc := NewScope(tr, nil)
	sc, frag := sc.Begin("frag", "frag", A("frag", 4))
	durs := [NumPhases]time.Duration{
		PhaseN1: 3 * time.Microsecond, PhaseV1: 5 * time.Microsecond,
		PhaseH1: 7 * time.Microsecond, PhaseP1: 11 * time.Microsecond,
	}
	base := time.Now()
	sc.RecordDFPTCycle(base, durs, 26*time.Microsecond)
	frag.End()

	spans := tr.Snapshot()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want frag + cycle + 4 phases", len(spans))
	}
	var cyc SpanRecord
	var phases []SpanRecord
	for _, s := range spans {
		switch s.Name {
		case "dfpt.cycle":
			cyc = s
		case "frag":
		default:
			phases = append(phases, s)
		}
	}
	if cyc.Parent != frag.ID() || cyc.Cat != "dfpt" || cyc.Start != tr.Since(base) || cyc.Dur != 26*time.Microsecond {
		t.Fatalf("cycle span = %+v, want parent %d at %v lasting 26µs", cyc, frag.ID(), tr.Since(base))
	}
	if iter, ok := cyc.Arg("iter"); !ok || iter != 1 {
		t.Fatalf("cycle iter arg = %d (present %v), want 1", iter, ok)
	}
	if len(phases) != int(NumPhases) {
		t.Fatalf("got %d phase spans, want %d", len(phases), NumPhases)
	}
	at := cyc.Start
	for i, p := range [NumPhases]Phase{PhaseN1, PhaseV1, PhaseH1, PhaseP1} {
		s := phases[i]
		if s.Name != PhaseNames[p] || s.Cat != "phase" || s.Parent != cyc.ID || s.Start != at || s.Dur != durs[p] {
			t.Fatalf("phase span %d = %+v, want %s under %d at %v lasting %v", i, s, PhaseNames[p], cyc.ID, at, durs[p])
		}
		at += durs[p]
	}
	if at != cyc.Start+cyc.Dur {
		t.Fatalf("phases end at %v, cycle at %v", at, cyc.Start+cyc.Dur)
	}
	sum, err := AnalyzeTrace(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row := sum.TopK[0]; row.Cycles != 1 || row.Phase != durs {
		t.Fatalf("AnalyzeTrace row = %+v, want 1 cycle with phases %v", row, durs)
	}

	// Five spans of room take one cycle whole; the next cycle's five spans
	// are all dropped.
	capped := NewTracer()
	capped.recorded.Store(DefaultMaxSpans - 5)
	csc := NewScope(capped, nil)
	csc.RecordDFPTCycle(base, durs, 26*time.Microsecond)
	if d := capped.Dropped(); d != 0 {
		t.Fatalf("dropped %d spans with room for one cycle", d)
	}
	csc.RecordDFPTCycle(base, durs, 26*time.Microsecond)
	if d := capped.Dropped(); d != 5 {
		t.Fatalf("dropped %d spans of a cycle past the cap, want 5", d)
	}
}

// TestWriteTextTotalMicroseconds: the phase table's total column keeps
// microseconds like the percentile columns, so a phase of µs-scale cycles
// does not print a zero total.
func TestWriteTextTotalMicroseconds(t *testing.T) {
	s := &StragglerSummary{PerCycle: true}
	s.Phases[PhaseN1] = PhaseQuantiles{Count: 44, P50: 2 * time.Microsecond, P95: 4 * time.Microsecond,
		P99: 4 * time.Microsecond, Total: 93*time.Microsecond + 400*time.Nanosecond}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == "n1" {
			if f[5] != "93µs" {
				t.Fatalf("n1 total printed %q, want 93µs:\n%s", f[5], buf.String())
			}
			return
		}
	}
	t.Fatalf("no n1 row in:\n%s", buf.String())
}

func TestStragglersFromFragStats(t *testing.T) {
	stats := []FragStat{
		{Frag: 0, Atoms: 3, Wall: 10 * time.Millisecond, Cycles: 4, Phase: [NumPhases]time.Duration{PhaseP1: time.Millisecond}},
		{Frag: 1, Atoms: 68, Wall: 90 * time.Millisecond, Cycles: 9, Phase: [NumPhases]time.Duration{PhaseP1: 9 * time.Millisecond}},
		{Frag: 2, Atoms: 6, Wall: 20 * time.Millisecond, Cycles: 2, Phase: [NumPhases]time.Duration{PhaseP1: 2 * time.Millisecond}},
	}
	s := Stragglers(stats, 2)
	if len(s.TopK) != 2 || s.TopK[0].Frag != 1 || s.TopK[1].Frag != 2 {
		t.Fatalf("topK = %+v", s.TopK)
	}
	if s.Fragments != 3 || s.PerCycle {
		t.Fatalf("summary meta = %+v", s)
	}
	if s.Phases[PhaseP1].Count != 3 || s.Phases[PhaseP1].P50 != 2*time.Millisecond {
		t.Fatalf("phase quantiles = %+v", s.Phases[PhaseP1])
	}
}
