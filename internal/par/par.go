// Package par is the deterministic intra-fragment parallel kernel layer —
// the second of the paper's two nested levels of parallelism (§V): fragments
// fan out across leaders (internal/sched), while *inside* every
// DFPT phase the data-parallel loops — grid-batch GEMMs, the Poisson sine
// transforms, density/potential integration, the sparse Hessian–vector products
// of the Lanczos solver — fan out across the cores of one node (the Sunway
// CPE clusters and ORISE GPUs of §V-B/§V-C; here, a bounded goroutine pool).
//
// # Determinism contract
//
// Every construct in this package is bit-deterministic for any worker count:
//
//   - Chunk boundaries are a pure function of the problem size n (and the
//     call site's minChunk), never of the worker count, GOMAXPROCS, or the
//     token budget. The same n always produces the same chunks.
//   - Reductions (ReduceSum, Dot, Norm2) compute one partial value per chunk
//     — each chunk accumulated serially, left to right — and combine the
//     partials in ascending chunk order on the calling goroutine. Which
//     worker computed a partial, and when, cannot affect the result.
//   - For bodies must write only to locations owned by their [lo,hi) range;
//     under that (checked by -race) the schedule cannot affect results.
//
// Float addition is not associative, so a chunked sum differs in the last
// bits from an unchunked one — but the chunked association is *fixed*, so
// results are bit-identical whether the chunks execute on 1 worker or 64.
// This is what preserves the store's content-addressed bit-reproducibility
// and the golden-spectrum guarantees while kernels scale.
//
// # Token budget
//
// A process-wide budget of kernel threads (default GOMAXPROCS, overridable
// with SetBudget / the -kernel-threads flag / QF_KERNEL_THREADS) sizes the
// second level. The first is the scheduler's leaders, one goroutine per
// fragment in flight, which run their fragment's kernels themselves. A kernel
// takes whatever helper tokens are free (tryAcquire) and returns them when it
// ends, so the kernels of many busy leaders share the helpers and run narrow,
// while the last fragments of the straggler tail find the tokens the finished
// ones released and run wide. Acquisition never blocks, so nested parallel
// calls cannot deadlock, and no more than one goroutine per leader plus
// budget − 1 helpers compute at once.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxChunks bounds the number of chunks a single call is split into; with
// minChunk it fully determines the (width-independent) chunk layout. 32
// chunks divide evenly across the modeled pool widths (2/4/8) while keeping
// per-chunk work large enough that the per-chunk bookkeeping (cursor bump,
// and under profile capture two clock reads) stays a small fraction of the
// chunk body.
const maxChunks = 32

// chunkLayout returns the deterministic chunk size and count for a range of
// n items: chunks are at least minChunk long, and at most maxChunks of them.
// The layout depends only on (n, minChunk) — never on workers or budget.
func chunkLayout(n, minChunk int) (size, count int) {
	if n <= 0 {
		return 0, 0
	}
	if minChunk < 1 {
		minChunk = 1
	}
	size = minChunk
	if c := (n + maxChunks - 1) / maxChunks; c > size {
		size = c
	}
	count = (n + size - 1) / size
	return size, count
}

// ---- Token budget ----

var (
	budgetMu    sync.Mutex
	budgetTotal int
	// tokens is the number of helper workers currently available. It can go
	// negative when SetBudget shrinks the budget while helpers hold tokens;
	// tryAcquire treats ≤0 as empty.
	tokens atomic.Int64
)

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("QF_KERNEL_THREADS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	budgetTotal = n
	tokens.Store(int64(n - 1)) // the calling goroutine is a worker too
}

// SetBudget sets the total kernel-thread budget (the caller counts as one;
// budget−1 helper tokens are available). n ≤ 0 resets to GOMAXPROCS.
// Results never depend on the budget — only wall time does.
func SetBudget(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	budgetMu.Lock()
	defer budgetMu.Unlock()
	tokens.Add(int64(n - budgetTotal))
	budgetTotal = n
}

// Budget returns the total kernel-thread budget.
func Budget() int {
	budgetMu.Lock()
	defer budgetMu.Unlock()
	return budgetTotal
}

// tryAcquire takes up to k helper tokens without blocking.
func tryAcquire(k int) int {
	if k <= 0 {
		return 0
	}
	for {
		cur := tokens.Load()
		if cur <= 0 {
			return 0
		}
		m := int64(k)
		if cur < m {
			m = cur
		}
		if tokens.CompareAndSwap(cur, cur-m) {
			return int(m)
		}
	}
}

func releaseTokens(m int) {
	if m > 0 {
		tokens.Add(int64(m))
	}
}

// ---- Worker pool ----

// idle parks finished workers for reuse; a dispatch prefers a parked worker
// over spawning a goroutine. The pool is bounded by the token budget, not by
// this channel (parked workers hold no tokens).
var idle = make(chan chan func(), 256)

func dispatch(fn func()) {
	select {
	case inbox := <-idle:
		inbox <- fn
	default:
		go workerLoop(fn)
	}
}

func workerLoop(fn func()) {
	inbox := make(chan func())
	for {
		fn()
		select {
		case idle <- inbox:
			fn = <-inbox
		default:
			return
		}
	}
}

// ---- Kernel entry points ----

// Chunks returns the deterministic chunk count of an n-item range with the
// given minChunk — how many per-chunk accumulators a ForChunks caller needs.
func Chunks(n, minChunk int) int {
	_, count := chunkLayout(n, minChunk)
	return count
}

// For executes body(lo, hi) over a partition of [0, n) on up to
// budget-limited workers. name labels the kernel in the observability
// metrics. Bodies must touch only state owned by their range; the chunk
// layout is a pure function of (n, minChunk), so any write pattern that is
// per-index is automatically bit-deterministic.
func For(name string, n, minChunk int, body func(lo, hi int)) {
	ForChunks(name, n, minChunk, func(_, lo, hi int) { body(lo, hi) })
}

// ForChunks is For with the chunk index exposed: body(c, lo, hi) may fill a
// per-chunk accumulator slot c, which the caller then combines in ascending
// chunk order for a deterministic reduction over non-scalar state (see
// scf.Forces). Chunk indices run 0..Chunks(n, minChunk)-1.
func ForChunks(name string, n, minChunk int, body func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	size, count := chunkLayout(n, minChunk)
	prof := profile.Load()
	if count <= 1 && prof == nil {
		body(0, 0, n)
		obsInline()
		return
	}
	helpers := 0
	if prof == nil {
		helpers = tryAcquire(count - 1)
	}
	if helpers == 0 {
		// Inline: one chunk, or no tokens free, or profiling (which times
		// every chunk individually on the caller). count ≤ maxChunks, so the
		// capture buffer lives on the stack; add folds it into the profile's
		// per-kernel totals.
		if prof != nil {
			var durs [maxChunks]time.Duration
			for c := 0; c < count; c++ {
				t0 := time.Now()
				body(c, c*size, minInt((c+1)*size, n))
				durs[c] = time.Since(t0)
			}
			prof.add(name, durs[:count])
		} else {
			for c := 0; c < count; c++ {
				body(c, c*size, minInt((c+1)*size, n))
			}
		}
		obsInline()
		return
	}
	runChunked(name, size, count, n, helpers, func(c int) {
		body(c, c*size, minInt((c+1)*size, n))
	})
}

// Fan runs body over [0, n) one item per chunk, for items that are
// themselves built from kernels — the seven recurrences of the Lanczos
// solver, each a sequence of dot and lanczos_vec kernels. Helpers taken here
// leave fewer tokens for the nested kernels, which then run inline: the same
// budget serves whichever level has the parallelism. Under profile capture
// Fan is not timed (its seconds are its kernels' seconds) and the items run
// serially on the caller.
func Fan(name string, n int, body func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if profile.Load() != nil {
		body(0, 0, n)
		return
	}
	ForChunks(name, n, 1, body)
}

// ReduceSum computes the sum of body(lo, hi) over the deterministic chunk
// partition of [0, n), combining the per-chunk partial sums in ascending
// chunk order. The result is bit-identical for any worker count or budget.
func ReduceSum(name string, n, minChunk int, body func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	size, count := chunkLayout(n, minChunk)
	prof := profile.Load()
	if count == 1 && prof == nil {
		obsInline()
		return body(0, n)
	}
	partials := make([]float64, count)
	helpers := 0
	if prof == nil {
		helpers = tryAcquire(count - 1)
	}
	if helpers == 0 {
		if prof != nil {
			var durs [maxChunks]time.Duration
			for c := 0; c < count; c++ {
				t0 := time.Now()
				partials[c] = body(c*size, minInt((c+1)*size, n))
				durs[c] = time.Since(t0)
			}
			prof.add(name, durs[:count])
		} else {
			for c := 0; c < count; c++ {
				partials[c] = body(c*size, minInt((c+1)*size, n))
			}
		}
		obsInline()
	} else {
		runChunked(name, size, count, n, helpers, func(c int) {
			partials[c] = body(c*size, minInt((c+1)*size, n))
		})
	}
	var s float64
	for _, p := range partials { // ordered combine: chunk 0, 1, 2, …
		s += p
	}
	return s
}

// runChunked drains chunks 0..count-1 through an atomic cursor shared by the
// caller and `helpers` pool workers. Chunk→worker assignment is racy and
// irrelevant: every chunk writes only its own slots.
func runChunked(name string, size, count, n, helpers int, run func(chunk int)) {
	o := obsState.Load()
	if o != nil {
		o.jobs.Inc()
		o.width.Observe(float64(helpers + 1))
		o.busy.Add(int64(helpers))
	}
	var cursor atomic.Int64
	drain := func() {
		var t0 time.Time
		if o != nil {
			t0 = time.Now()
		}
		for {
			c := int(cursor.Add(1)) - 1
			if c >= count {
				break
			}
			run(c)
		}
		if o != nil {
			o.shard(name).ObserveDuration(time.Since(t0))
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		dispatch(func() {
			defer wg.Done()
			drain()
		})
	}
	drain()
	wg.Wait()
	releaseTokens(helpers)
	if o != nil {
		o.busy.Add(int64(-helpers))
	}
}

// DotChunk is the reduction floor for Dot/SumSq: vectors below it take the
// exact serial path, and longer vectors split into ≥2,048-element chunks —
// ~µs of fused multiply-add work per chunk, enough to amortize dispatch
// while giving the long Lanczos vectors of large systems real parallelism.
// Exported with DotRange for kernels that fuse a dot product into another
// sweep and must reproduce Dot's bits: ForChunks(…, n, DotChunk, …), one
// DotRange-associated partial per chunk, partials added in ascending order.
const DotChunk = 2048

// DotRange is the per-chunk dot body: four independent accumulator chains
// (the SIMD-friendly unrolled form — the add-latency chain of the naive loop
// is the bottleneck, not bandwidth, for L1/L2-resident vectors). The
// association depends only on (lo, hi), which the chunk layout fixes, so the
// combined value stays bit-identical at any width.
func DotRange(a, b []float64, lo, hi int) float64 {
	var s0, s1, s2, s3 float64
	i := lo
	for ; i+3 < hi; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	var st float64
	for ; i < hi; i++ {
		st += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + st
}

// Dot returns the inner product of two equal-length vectors with the
// deterministic chunked reduction (bit-identical at any width).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("par: Dot length mismatch")
	}
	return ReduceSum("dot", len(a), DotChunk, func(lo, hi int) float64 {
		return DotRange(a, b, lo, hi)
	})
}

// SumSq returns Σ aᵢ² with the deterministic chunked reduction.
func SumSq(a []float64) float64 {
	return ReduceSum("dot", len(a), DotChunk, func(lo, hi int) float64 {
		return DotRange(a, a, lo, hi)
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ElasticStats is the counter shape of the deleted cross-fragment batch
// aggregator, kept (Merged always 0) only because bench/ compiles against it.
type ElasticStats struct {
	Submits, Items, Flushes, Merged int64
}
