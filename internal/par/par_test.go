package par

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qframan/internal/obs"
)

// withBudget runs f under a temporary kernel-thread budget.
func withBudget(t *testing.T, n int, f func()) {
	t.Helper()
	old := Budget()
	SetBudget(n)
	defer SetBudget(old)
	f()
}

func TestChunkLayoutPureAndCovering(t *testing.T) {
	for _, n := range []int{1, 2, 7, 63, 64, 65, 100, 4096, 4097, 1 << 20} {
		for _, mc := range []int{1, 8, 4096} {
			size, count := chunkLayout(n, mc)
			if size < mc || count > maxChunks {
				t.Fatalf("n=%d mc=%d: size=%d count=%d violates bounds", n, mc, size, count)
			}
			if (count-1)*size >= n || count*size < n {
				t.Fatalf("n=%d mc=%d: chunks don't cover exactly (size=%d count=%d)", n, mc, size, count)
			}
			// Purity: same inputs, same layout — trivially true for a pure
			// function, but guards against anyone adding width dependence.
			s2, c2 := chunkLayout(n, mc)
			if s2 != size || c2 != count {
				t.Fatalf("chunkLayout not deterministic for n=%d", n)
			}
		}
	}
	if s, c := chunkLayout(0, 8); s != 0 || c != 0 {
		t.Fatalf("n=0 should have no chunks")
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		withBudget(t, w, func() {
			const n = 10_001
			hits := make([]int32, n)
			For("test", n, 16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("width %d: index %d visited %d times", w, i, h)
				}
			}
		})
	}
}

// TestReduceSumBitIdenticalAcrossWidths is the core determinism property:
// the same reduction at widths 1, 3, and NumCPU produces bit-identical
// float64 results.
func TestReduceSumBitIdenticalAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 300_000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	widths := []int{1, 3, runtime.NumCPU()}
	var want, wantSq float64
	for wi, w := range widths {
		withBudget(t, w, func() {
			got := Dot(a, b)
			gotSq := SumSq(a)
			if wi == 0 {
				want, wantSq = got, gotSq
				return
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Dot at width %d: %x != %x (width 1)", w, math.Float64bits(got), math.Float64bits(want))
			}
			if math.Float64bits(gotSq) != math.Float64bits(wantSq) {
				t.Fatalf("SumSq at width %d: %x != %x (width 1)", w, math.Float64bits(gotSq), math.Float64bits(wantSq))
			}
		})
	}
}

func TestSmallReductionMatchesSerial(t *testing.T) {
	// Below minChunk the reduction must be the plain serial loop —
	// bit-identical to the pre-par code path.
	a := []float64{0.1, 0.2, 0.3, -0.4, 1e-17, 1e17}
	var serial float64
	for _, v := range a {
		serial += v * v
	}
	if got := SumSq(a); math.Float64bits(got) != math.Float64bits(serial) {
		t.Fatalf("small SumSq diverges from serial: %v != %v", got, serial)
	}
}

// TestPoolStress hammers nested For/ReduceSum from many goroutines; run
// under -race this is the pool's data-race gate.
func TestPoolStress(t *testing.T) {
	withBudget(t, 8, func() {
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				a := make([]float64, 20_000)
				for i := range a {
					a[i] = rng.Float64()
				}
				for iter := 0; iter < 30; iter++ {
					out := make([]float64, len(a))
					For("stress", len(a), 64, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							out[i] = a[i] * 2
						}
						// Nested reduction inside a For body must not
						// deadlock (TryAcquire never blocks).
						_ = ReduceSum("stress_inner", 128, 16, func(l, h int) float64 {
							return float64(h - l)
						})
					})
					s := SumSq(out)
					if s <= 0 {
						panic("impossible")
					}
				}
			}(int64(g))
		}
		wg.Wait()
	})
}

func TestObsCounters(t *testing.T) {
	r := obs.NewRegistry()
	SetObs(r)
	defer SetObs(nil)
	withBudget(t, 4, func() {
		For("obs_kernel", 1<<16, 1, func(lo, hi int) {})
		_ = Dot(make([]float64, 3), make([]float64, 3)) // inline path
	})
	s := r.Snapshot()
	if s.Counters[obs.MetricParJobs] == 0 && s.Counters[obs.MetricParInline] == 0 {
		t.Fatalf("no pool activity recorded: %+v", s.Counters)
	}
	if s.Gauges[obs.MetricParWorkersBusy] != 0 {
		t.Fatalf("busy gauge should return to 0, got %d", s.Gauges[obs.MetricParWorkersBusy])
	}
}

func TestProfileByKernel(t *testing.T) {
	p := StartProfile()
	defer StopProfile()
	work := make([]float64, 1<<15)
	For("prof_kernel", len(work), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			work[i] = math.Sqrt(float64(i))
		}
	})
	chunks, secs := p.ChunksByKernel(), p.ByKernel()
	if len(chunks) != 1 || chunks["prof_kernel"] < 2 {
		t.Fatalf("expected one kernel with several chunks, got %v", chunks)
	}
	if len(secs) != 1 || secs["prof_kernel"] <= 0 {
		t.Fatalf("expected one kernel with positive serial seconds, got %v", secs)
	}
}

// TestFanRunsEveryItemOnceAndIsNotProfiled: Fan hands each item to exactly
// one chunk at any width, and under profile capture it runs the items
// without logging a kernel of its own — only the kernels the items call
// appear, so their seconds are not counted twice.
func TestFanRunsEveryItemOnceAndIsNotProfiled(t *testing.T) {
	for _, width := range []int{1, 4} {
		withBudget(t, width, func() {
			hits := make([]int32, 7)
			Fan("fan_items", len(hits), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("width %d: item %d ran %d times", width, i, h)
				}
			}
		})
	}
	Fan("fan_items", 0, func(_, _, _ int) { t.Fatal("body ran on an empty range") })

	p := StartProfile()
	defer StopProfile()
	a := make([]float64, 3*DotChunk)
	var ran int
	Fan("fan_items", 3, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ran++
			Dot(a, a)
		}
	})
	chunks := p.ChunksByKernel()
	if ran != 3 || len(chunks) != 1 || chunks["dot"] != 9 {
		t.Fatalf("%d items ran, profile saw %v; want 3 items and only their nine dot chunks", ran, chunks)
	}
}

func TestSetBudgetRestoresTokens(t *testing.T) {
	old := Budget()
	SetBudget(2)
	SetBudget(16)
	SetBudget(old)
	if Budget() != old {
		t.Fatalf("budget not restored")
	}
	// All tokens must be back: a wide For should be able to go parallel.
	withBudget(t, 4, func() {
		var seen sync.Map
		For("budget_check", 1<<18, 1, func(lo, hi int) {
			seen.Store(lo, true)
			time.Sleep(10 * time.Microsecond)
		})
	})
}
