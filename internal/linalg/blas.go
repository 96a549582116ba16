package linalg

import (
	"sync/atomic"

	"qframan/internal/par"
)

// Ops tracks BLAS-level operation counts and floating-point operation counts.
// The DFPT engine uses these counters to demonstrate the symmetry-aware
// strength reduction (paper §V-D, Fig. 6) — fewer GEMM/GEMV invocations for
// identical results — and the batch plan's shape classes group calls of
// similar computational strength (§V-C).
//
// Counters are updated atomically so concurrent workers can share them.
type Ops struct {
	GEMMCalls  atomic.Int64
	GEMVCalls  atomic.Int64
	FLOPs      atomic.Int64
	BatchCalls atomic.Int64 // shape-class groups run as one gemm_batch kernel (BatchPlan.Run)
	// TransposeSkips counts GEMMs the batch planner never executed because
	// their result is the exact transpose of another call in the same batch
	// (§V-D strength reduction); the skipped FLOPs are excluded from FLOPs.
	TransposeSkips atomic.Int64
}

// Reset zeroes all counters.
func (o *Ops) Reset() {
	o.GEMMCalls.Store(0)
	o.GEMVCalls.Store(0)
	o.FLOPs.Store(0)
	o.BatchCalls.Store(0)
	o.TransposeSkips.Store(0)
}

// Snapshot returns the current counter values.
func (o *Ops) Snapshot() (gemm, gemv, flops, batches int64) {
	return o.GEMMCalls.Load(), o.GEMVCalls.Load(), o.FLOPs.Load(), o.BatchCalls.Load()
}

// DefaultOps is the process-wide counter set used when no explicit Ops is
// supplied.
var DefaultOps Ops

// GemmFLOPs returns the canonical FLOP count of a GEMM of shape (m×k)·(k×n).
func GemmFLOPs(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }

// gemmMinRows returns the minimum output-row chunk of a parallel GEMM so a
// chunk carries at least ~16 kFLOP (a few µs of fused multiply-adds) —
// below that the dispatch overhead beats the win, above it even the small
// per-fragment SCF/DFPT matrices (nao ≈ 10–30) split into a couple of
// chunks. Pure function of the problem shape, so the chunk layout (and with
// it bit-determinism) never depends on the worker count.
func gemmMinRows(k, n int) int {
	rowFLOPs := 2 * k * n
	if rowFLOPs <= 0 {
		return 1
	}
	return 1 + 16*1024/rowFLOPs
}

// gemmParName labels the par region per trans case so the observability
// breakdown keeps its historical kernel names.
func gemmParName(transA, transB bool) string {
	switch {
	case !transA && !transB:
		return "gemm_nn"
	case transA && !transB:
		return "gemm_tn"
	case !transA && transB:
		return "gemm_nt"
	default:
		return "gemm_tt"
	}
}

// gemmDirectShape reports whether a GEMM of shape (m×k)·(k×n) runs the direct
// kernel (block.go: gemmDirect) instead of the packed blocked one. Pure
// function of the shape — never of width, budget or caller — and since both
// kernels produce the same bits, a performance decision only. The threshold is
// the crossover of BenchmarkGemm_Fragment at width 1 (EXPERIMENTS.md, "GEMM
// crossover ladder"): below 20³ multiply-adds the direct kernel is 5–30 %
// faster on squares and 1.2–4× on the nv×n·n×no products of water, dimer and
// glycine fragments; from 22³ up packing pays for itself (24³: blocked 10–25 %
// faster, 31³: 1.4×).
func gemmDirectShape(m, k, n int) bool { return m*k*n <= 20*20*20 }

// GemmOp is one GEMM, C = alpha·op(A)·op(B) + beta·C, with everything that
// does not depend on the operands' values resolved once: the shapes validated
// against C, the kernel chosen from (m, k, n), the par region's name and chunk
// layout fixed and its bodies bound — so Run allocates nothing. Between runs
// callers change what A, B and C hold, never which matrices the op names.
// Gemm is the one-shot form; the batch plan runs its members through the same
// type. One Run at a time.
//
// Both kernels (block.go) accumulate each output element's k terms in
// ascending order in a single chain, so results are bit-identical at any
// kernel width, through the batch path, between the kernels, and to the naive
// triple-loop reference. Row-panel chunks shard across the par pool and
// double as cache tiles.
type GemmOp struct {
	transA, transB bool
	alpha, beta    float64
	a, b, c        *Matrix
	m, k, n        int

	direct bool // gemmDirectShape(m, k, n)
	// syrk: op(A)·op(A)ᵀ with beta == 0 has an exactly symmetric result, so
	// only the lower triangle is computed and then mirrored. (With beta ≠ 0
	// the old C may be asymmetric, so the full product is computed.)
	syrk bool
	name string // par region, per trans case
	// A chunk owns whole mr-row panels, so tile boundaries — and with them
	// every accumulator chain — are identical at any width.
	panels, minPanels int
	bp                []float64 // blocked kernel: op(B) packed for the Run in progress
	body, mirror      func(chunk, lo, hi int)
}

// BindGemm validates the shapes of C = alpha·op(A)·op(B) + beta·C, where op
// is identity or transpose according to transA/transB, and returns the bound
// op. A mismatch panics.
func BindGemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) *GemmOp {
	g := new(GemmOp)
	if !g.set(transA, transB, alpha, a, b, beta, c) {
		panic("linalg: Gemm shape mismatch")
	}
	g.body = g.runPanels
	if g.syrk {
		g.mirror = g.mirrorPanels
	}
	return g
}

// set resolves everything but the region bodies (the batch plan runs its
// members inline and needs none); false means the shapes disagree.
func (g *GemmOp) set(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) bool {
	m, k := a.Rows, a.Cols
	if transA {
		m, k = k, m
	}
	bk, n := b.Rows, b.Cols
	if transB {
		bk, n = n, bk
	}
	if k != bk || c.Rows != m || c.Cols != n {
		return false
	}
	*g = GemmOp{
		transA: transA, transB: transB, alpha: alpha, beta: beta,
		a: a, b: b, c: c, m: m, k: k, n: n,
		direct:    gemmDirectShape(m, k, n),
		syrk:      syrkCandidate(transA, transB, a, b) && beta == 0 && m == n,
		name:      gemmParName(transA, transB),
		panels:    (m + mr - 1) / mr,
		minPanels: 1 + gemmMinRows(k, n)/mr,
	}
	return true
}

// Run computes C from the operands' current contents; it counts nothing.
func (g *GemmOp) Run() {
	if g.m == 0 || g.n == 0 {
		return
	}
	buf := g.packB()
	par.ForChunks(g.name, g.panels, g.minPanels, g.body)
	if g.syrk {
		par.ForChunks(g.name, g.panels, g.minPanels, g.mirror)
	}
	g.unpackB(buf)
}

// inline is Run on the caller alone, with no par region — for the batch
// plan, which parallelizes across its members instead.
func (g *GemmOp) inline() {
	if g.m == 0 || g.n == 0 {
		return
	}
	buf := g.packB()
	g.runPanels(0, 0, g.panels)
	if g.syrk {
		mirrorLower(g.c, 0, g.m)
	}
	g.unpackB(buf)
}

// packB packs op(B) once for all panels of a blocked run; the direct kernel
// reads B in place and touches no pool.
func (g *GemmOp) packB() *[]float64 {
	if g.direct {
		return nil
	}
	buf := getPack(g.k * nr * ((g.n + nr - 1) / nr))
	packOpB(g.transB, g.b, g.k, g.n, *buf)
	g.bp = *buf
	return buf
}

func (g *GemmOp) unpackB(buf *[]float64) {
	if buf != nil {
		g.bp = nil
		putPack(buf)
	}
}

func (g *GemmOp) runPanels(_, lo, hi int) {
	if g.direct {
		gemmDirect(g.transA, g.transB, g.alpha, g.a, g.b, g.beta, g.c, g.m, g.k, g.n, lo, hi, g.syrk)
	} else {
		gemmPanels(g.transA, g.alpha, g.a, g.bp, g.beta, g.c, g.m, g.k, g.n, lo, hi, g.syrk)
	}
}

func (g *GemmOp) mirrorPanels(_, lo, hi int) {
	mirrorLower(g.c, lo*mr, min(hi*mr, g.m))
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C once: BindGemm, the Ops
// accounting, Run. A direct-kernel shape is too small to shard, so it runs on
// the caller from an op on the stack (the same bits: see GemmOp) and
// allocates nothing.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, ops *Ops) {
	if ops == nil {
		ops = &DefaultOps
	}
	if gemmSmall(transA, transB, alpha, a, b, beta, c, ops) {
		return
	}
	g := BindGemm(transA, transB, alpha, a, b, beta, c)
	ops.GEMMCalls.Add(1)
	ops.FLOPs.Add(GemmFLOPs(g.m, g.k, g.n))
	g.Run()
}

// gemmSmall is Gemm for a direct-kernel shape, run inline; false (nothing
// done) for any other shape.
func gemmSmall(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, ops *Ops) bool {
	var g GemmOp
	if !g.set(transA, transB, alpha, a, b, beta, c) {
		panic("linalg: Gemm shape mismatch")
	}
	if !g.direct {
		return false
	}
	ops.GEMMCalls.Add(1)
	ops.FLOPs.Add(GemmFLOPs(g.m, g.k, g.n))
	g.inline()
	return true
}

// MatMul returns op(A)·op(B) as a new matrix (alpha=1, beta=0).
func MatMul(transA, transB bool, a, b *Matrix, ops *Ops) *Matrix {
	am := a.Rows
	if transA {
		am = a.Cols
	}
	bn := b.Cols
	if transB {
		bn = b.Rows
	}
	c := NewMatrix(am, bn)
	Gemm(transA, transB, 1, a, b, 0, c, ops)
	return c
}

// Gemv computes y = alpha·op(A)·x + beta·y.
func Gemv(trans bool, alpha float64, a *Matrix, x []float64, beta float64, y []float64, ops *Ops) {
	m, n := a.Rows, a.Cols
	if trans {
		m, n = n, m
	}
	if len(x) != n || len(y) != m {
		panic("linalg: Gemv shape mismatch")
	}
	if ops == nil {
		ops = &DefaultOps
	}
	ops.GEMVCalls.Add(1)
	ops.FLOPs.Add(2 * int64(m) * int64(n))

	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		Scal(beta, y)
	}
	minRows := 1 + 16*1024/(n+1)
	if !trans {
		par.For("gemv_n", m, minRows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				y[i] += alpha * Dot(a.Row(i), x)
			}
		})
	} else {
		// y[j] += alpha * Σ_k x[k]·A[k][j]; sharded over output index j,
		// with the same ascending-k accumulation and x[k]==0 skip as the
		// serial scatter form, so results match it bit for bit.
		par.For("gemv_t", m, minRows, func(lo, hi int) {
			for k := 0; k < a.Rows; k++ {
				v := alpha * x[k]
				if v == 0 {
					continue
				}
				row := a.Row(k)
				for j := lo; j < hi; j++ {
					y[j] += v * row[j]
				}
			}
		})
	}
}
