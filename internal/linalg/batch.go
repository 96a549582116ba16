package linalg

import (
	"sync/atomic"

	"qframan/internal/par"
)

// This file is the host side of the elastic batched-GEMM offload (paper
// §V-C): independent GemmCalls are grouped into same-shape-class batches —
// dimensions padded up to multiples of BatchStride, exactly the grouping the
// simulated accelerator (internal/accel) offloads — and each group runs as
// one "gemm_batch" kernel that fans across batch members.
//
// Padding exists only in the grouping key. The host kernel computes every
// call at its true shape — the blocked micro-kernel masks its register-tile
// tails at write-back (block.go), so padded lanes are never even computed,
// let alone leaked — which is why a batched call is bit-identical to a
// plain Gemm (gemmref is the test reference).

// BatchStride is the shape-class padding stride (the paper batches with a
// stride of 32); a call of shape (m,k,n) lands in class (⌈m/32⌉·32, …).
const BatchStride = 32

// batchClass is the padded shape class used for grouping.
type batchClass struct{ m, k, n int }

func padStride(v int) int { return (v + BatchStride - 1) / BatchStride * BatchStride }

func classOf(c *GemmCall) batchClass {
	m, k, n := c.Shape()
	return batchClass{padStride(m), padStride(k), padStride(n)}
}

// runBatch executes one shape-class group. Each call runs at its true shape
// with the inline blocked kernel — parallelism comes from fanning across
// batch members, so profiling sees one flat "gemm_batch" region with no
// nested kernels.
func runBatch(calls []GemmCall) {
	batchSubmits.Add(1)
	batchItems.Add(int64(len(calls)))
	par.For("gemm_batch", len(calls), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := &calls[i]
			m, k, n := c.Shape()
			gemmBlocked(c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, c.C, m, k, n, "", true)
		}
	})
}

var batchSubmits, batchItems atomic.Int64

// GemmBatchStats counts the shape-class groups executed and their calls.
// It keeps the par.ElasticStats shape only because bench/ compiles against
// it; every group is its own flush, so Merged is always 0.
func GemmBatchStats() par.ElasticStats {
	n := batchSubmits.Load()
	return par.ElasticStats{Submits: n, Items: batchItems.Load(), Flushes: n}
}

// transposeInto sets dst = srcᵀ elementwise; shapes must be transposes.
func transposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic("linalg: transposeInto shape mismatch")
	}
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// transposePairOf reports whether call j is the exact transpose pair of call
// i — C_j = alpha·op(B_i)ᵀ·op(A_i)ᵀ = C_iᵀ — detected by pointer identity on
// the operands. Both calls must overwrite their outputs (beta == 0, so no
// stale-C term), share alpha, and write distinct C matrices. When it holds,
// C_j's every element accumulates the same products in the same ascending-k
// order as the mirrored element of C_i (a·b == b·a bitwise), so copying the
// transpose reproduces the skipped GEMM bit for bit.
func transposePairOf(i, j *GemmCall) bool {
	return j.A == i.B && j.B == i.A &&
		j.TransA == !i.TransB && j.TransB == !i.TransA &&
		j.Alpha == i.Alpha && i.Beta == 0 && j.Beta == 0 &&
		i.C != j.C
}

// ExecuteBatched runs a set of independent GemmCalls through the batch
// path: transpose-pair duplicates are strength-reduced to a copy, the rest
// are split by padded shape class (mixed-shape submissions are legal — they
// simply split), and each class group runs as one gemm_batch kernel.
// Counting: executed calls add to GEMMCalls and FLOPs; skipped calls add
// only to TransposeSkips (§V-D — fewer invocations, identical results).
// Blocks until every call's C is final.
func ExecuteBatched(calls []GemmCall, ops *Ops) {
	if ops == nil {
		ops = &DefaultOps
	}

	// Strength reduction: find calls whose result is the exact transpose of
	// an earlier call in this submission. Pointer-keyed lookup: a pair match
	// requires j's (A, B) to be i's (B, A).
	type opsKey struct{ a, b *Matrix }
	byOps := make(map[opsKey]int, len(calls))
	skipOf := make([]int, len(calls)) // index of the source call, or -1
	for i := range calls {
		c := &calls[i]
		skipOf[i] = -1
		if src, ok := byOps[opsKey{c.B, c.A}]; ok && transposePairOf(&calls[src], c) {
			skipOf[i] = src
			ops.TransposeSkips.Add(1)
			continue
		}
		// First executed call with these operands wins the slot; later
		// identical-operand calls would be their own pair sources.
		if _, dup := byOps[opsKey{c.A, c.B}]; !dup {
			byOps[opsKey{c.A, c.B}] = i
		}
	}

	// Split executed calls by padded shape class and run each group.
	groups := map[batchClass][]GemmCall{}
	var order []batchClass // deterministic execution order
	for i := range calls {
		if skipOf[i] >= 0 {
			continue
		}
		c := &calls[i]
		ops.GEMMCalls.Add(1)
		ops.FLOPs.Add(c.FLOPs())
		key := classOf(c)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], *c)
	}
	ops.BatchCalls.Add(int64(len(order)))
	for _, key := range order {
		runBatch(groups[key])
	}

	// All sources are final; materialize the skipped results.
	for i := range calls {
		if src := skipOf[i]; src >= 0 {
			transposeInto(calls[i].C, calls[src].C)
		}
	}
}
