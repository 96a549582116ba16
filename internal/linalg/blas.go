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

// Gemm computes C = alpha·op(A)·op(B) + beta·C where op is identity or
// transpose according to transA/transB. Shapes are validated against C.
// All four trans cases run the packed blocked kernel (block.go): op(A) and
// op(B) are packed into 4×4 micro-tile panels and each output element
// accumulates its k terms in ascending order in a single chain, so results
// are bit-identical at any kernel width, through the batch path, and to the
// naive triple-loop reference. Row-panel chunks shard across the par pool
// and double as cache tiles.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, ops *Ops) {
	am, ak := a.Rows, a.Cols
	if transA {
		am, ak = a.Cols, a.Rows
	}
	bk, bn := b.Rows, b.Cols
	if transB {
		bk, bn = b.Cols, b.Rows
	}
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic("linalg: Gemm shape mismatch")
	}
	if ops == nil {
		ops = &DefaultOps
	}
	ops.GEMMCalls.Add(1)
	ops.FLOPs.Add(GemmFLOPs(am, ak, bn))

	gemmBlocked(transA, transB, alpha, a, b, beta, c, am, ak, bn,
		gemmParName(transA, transB), false)
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
