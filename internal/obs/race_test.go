package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentHammer drives the registry and the span recorder from 64
// goroutines — each one fragment span with its events under it — while
// other goroutines snapshot both concurrently, then checks the final totals
// and AnalyzeTrace's per-fragment table equal the recorded events exactly.
// Run under -race in CI, this is the data-race proof for the whole layer.
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 64
		events     = 500
	)
	tr := NewTracer() // DefaultMaxSpans holds every span of the run
	reg := NewRegistry()
	sc := NewScope(tr, reg)
	ctr := reg.Counter("hammer_total")
	gauge := reg.Gauge("hammer_gauge")
	hist := reg.Histogram("hammer_seconds", DurationBuckets)

	var stop atomic.Bool
	var snapshots sync.WaitGroup
	for i := 0; i < 4; i++ {
		snapshots.Add(1)
		go func() {
			defer snapshots.Done()
			for !stop.Load() {
				snap := reg.Snapshot()
				if snap.Counters["hammer_total"] < 0 {
					t.Error("counter went negative")
					return
				}
				_ = tr.Snapshot()
				_ = tr.Dropped()
			}
		}()
	}

	var workers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			wsc, frag := sc.WithTrack(int32(g)).Begin("frag", "frag", A("frag", int64(g)), A("atoms", 1))
			for i := 0; i < events; i++ {
				ctr.Inc()
				gauge.Set(int64(i))
				hist.Observe(float64(i) * 1e-6)
				child, sp := wsc.Begin("work", "test", A("g", int64(g)))
				child.RecordDFPTCycle(time.Now(), [NumPhases]time.Duration{
					PhaseP1: time.Nanosecond, PhaseN1: time.Nanosecond,
					PhaseV1: time.Nanosecond, PhaseH1: time.Nanosecond,
				}, 4*time.Nanosecond)
				sp.End()
			}
			frag.End()
		}(g)
	}
	workers.Wait()
	stop.Store(true)
	snapshots.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["hammer_total"]; got != goroutines*events {
		t.Fatalf("counter total = %d, want %d", got, goroutines*events)
	}
	h := snap.Hists["hammer_seconds"]
	if h.Count != goroutines*events {
		t.Fatalf("histogram count = %d, want %d", h.Count, goroutines*events)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	if got := snap.Counters[MetricDFPTCycles]; got != goroutines*events {
		t.Fatalf("cycle counter = %d, want %d", got, goroutines*events)
	}
	phaseCount := snap.Hists[PhaseMetricName(PhaseP1)].Count
	if phaseCount != goroutines*events {
		t.Fatalf("phase histogram count = %d, want %d", phaseCount, goroutines*events)
	}

	// Spans: one "work" + one cycle + four phases per event and one
	// fragment span per goroutine, none dropped.
	spans := tr.Snapshot()
	want := goroutines*events*6 + goroutines
	if len(spans) != want {
		t.Fatalf("recorded %d spans, want %d (dropped %d)", len(spans), want, tr.Dropped())
	}
	counts := map[string]int{}
	for i := range spans {
		counts[spans[i].Name]++
	}
	if counts["work"] != goroutines*events || counts["dfpt.cycle"] != goroutines*events ||
		counts["p1"] != goroutines*events {
		t.Fatalf("span name counts = %v", counts)
	}
	// Every span id must be unique (the recorder's ids are the nesting
	// backbone of the trace format).
	seen := make(map[uint64]bool, len(spans))
	for i := range spans {
		if seen[spans[i].ID] {
			t.Fatalf("duplicate span id %d", spans[i].ID)
		}
		seen[spans[i].ID] = true
	}

	// The straggler table reads every fragment's cycles off its spans.
	sum, err := AnalyzeTrace(spans, goroutines)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Classes != goroutines || len(sum.TopK) != goroutines ||
		sum.Phases[PhaseP1].Count != goroutines*events {
		t.Fatalf("AnalyzeTrace: %d classes, %d rows, %d p1 samples", sum.Classes, len(sum.TopK), sum.Phases[PhaseP1].Count)
	}
	for _, row := range sum.TopK {
		if row.Cycles != events {
			t.Errorf("fragment %d: %d cycles, want %d", row.Frag, row.Cycles, events)
		}
	}
}
