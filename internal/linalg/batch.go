package linalg

import (
	"fmt"
	"sync/atomic"

	"qframan/internal/par"
)

// This file is the host side of the elastic batched-GEMM offload (paper
// §V-C, Fig. 5) and of the symmetry-aware strength reduction (§V-D, Fig. 6),
// which are one idea: collect a cycle's small independent GEMMs, drop the
// ones that are transposes of others, run the rest as same-shape-class
// batches — dimensions padded up to multiples of BatchStride — each as one
// "gemm_batch" kernel that fans across batch members. Everything that does
// not depend on the operands' values (validation, pair detection, grouping,
// the counter totals) is resolved once, in PlanBatch; a cycle is BatchPlan.Run.
//
// Padding exists only in the grouping key. The host kernel computes every
// call at its true shape — the blocked micro-kernel masks its register-tile
// tails at write-back (block.go), so padded lanes are never even computed,
// let alone leaked — which is why a batched call is bit-identical to a
// plain Gemm (gemmref is the test reference).

// GemmCall is one deferred GEMM invocation: C = alpha·op(A)·op(B) + beta·C.
// The DFPT grid phases produce thousands of small, mutually independent
// GemmCalls per cycle (one or a few per grid batch); collecting them into a
// list is the strip-mining/privatization transformation of the paper's
// elastic workload offloading: the CPU-friendly preparation and reduction
// loops run separately, while the GEMMs arrive as a single packable workload.
type GemmCall struct {
	TransA, TransB bool
	Alpha          float64
	A, B           *Matrix
	Beta           float64
	C              *Matrix
}

// Shape returns the (m, k, n) GEMM dimensions, reading k from A.
func (c *GemmCall) Shape() (m, k, n int) {
	m, k = c.A.Rows, c.A.Cols
	if c.TransA {
		m, k = k, m
	}
	n = c.B.Cols
	if c.TransB {
		n = c.B.Rows
	}
	return
}

// FLOPs returns the floating-point cost of the call.
func (c *GemmCall) FLOPs() int64 { return GemmFLOPs(c.Shape()) }

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

// BatchPlan is a list of independent GemmCalls with everything that is
// invariant across runs resolved: every call's shapes validated, the
// transpose-pair duplicates found (§V-D), the remaining calls split by padded
// shape class in first-appearance order (mixed-shape lists are legal — they
// simply split), and the counter totals summed. The plan keeps its own copy
// of the list, so its operands are never re-pointed: between runs callers
// change what the matrices hold, not which matrices a call names. One Run at
// a time.
type BatchPlan struct {
	calls  []GemmCall
	ops    []GemmOp // calls[i] resolved (shapes, kernel); skipped calls never run theirs
	groups []batchGroup
	skips  []transposeSkip
	flops  int64 // of the executed (non-skipped) calls
}

// batchGroup is one shape class: the indices of its calls in list order and
// the gemm_batch kernel body over them, bound once so Run allocates nothing.
type batchGroup struct {
	idx  []int
	body func(chunk, lo, hi int)
}

// transposeSkip records that calls[dst] is never executed: its C is the
// exact transpose of calls[src]'s.
type transposeSkip struct{ dst, src int }

// PlanBatch validates and plans a call list. A call whose inner dimensions
// disagree or whose C has the wrong shape panics here, on the caller's
// goroutine, like Gemm — not later inside a kernel worker.
func PlanBatch(calls []GemmCall) *BatchPlan {
	p := &BatchPlan{calls: append([]GemmCall(nil), calls...), ops: make([]GemmOp, len(calls))}
	calls = p.calls
	for i := range calls {
		c := &calls[i]
		if !p.ops[i].set(c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, c.C) {
			panic(fmt.Sprintf("linalg: Gemm shape mismatch in batch call %d", i))
		}
	}

	// Strength reduction: find calls whose result is the exact transpose of
	// an earlier call in the list. Pointer-keyed lookup: a pair match
	// requires j's (A, B) to be i's (B, A).
	type opsKey struct{ a, b *Matrix }
	byOps := make(map[opsKey]int, len(calls))
	classIdx := map[batchClass]int{}
	for i := range calls {
		c := &calls[i]
		if src, ok := byOps[opsKey{c.B, c.A}]; ok && transposePairOf(&calls[src], c) {
			p.skips = append(p.skips, transposeSkip{dst: i, src: src})
			continue
		}
		// First executed call with these operands wins the slot; later
		// identical-operand calls would be their own pair sources.
		if _, dup := byOps[opsKey{c.A, c.B}]; !dup {
			byOps[opsKey{c.A, c.B}] = i
		}
		p.flops += c.FLOPs()
		key := classOf(c)
		gi, ok := classIdx[key]
		if !ok {
			gi = len(p.groups)
			classIdx[key] = gi
			p.groups = append(p.groups, batchGroup{})
		}
		p.groups[gi].idx = append(p.groups[gi].idx, i)
	}
	for gi := range p.groups {
		// Each call runs at its true shape on one worker, with the kernel its
		// shape selects — parallelism comes from fanning across batch members,
		// so profiling sees one flat "gemm_batch" region per class with no
		// nested kernels.
		idx := p.groups[gi].idx
		p.groups[gi].body = func(_, lo, hi int) {
			for _, i := range idx[lo:hi] {
				p.ops[i].inline()
			}
		}
	}
	return p
}

// Run executes the planned list on the operands' current contents: each
// shape class as one gemm_batch kernel, then the skipped results
// materialized as transposes of their (now final) sources. Counting:
// executed calls add to GEMMCalls and FLOPs, classes to BatchCalls, skipped
// calls only to TransposeSkips (§V-D — fewer invocations, identical
// results). Blocks until every call's C is final.
func (p *BatchPlan) Run(ops *Ops) {
	if ops == nil {
		ops = &DefaultOps
	}
	ops.TransposeSkips.Add(int64(len(p.skips)))
	ops.GEMMCalls.Add(int64(len(p.calls) - len(p.skips)))
	ops.FLOPs.Add(p.flops)
	ops.BatchCalls.Add(int64(len(p.groups)))
	for gi := range p.groups {
		g := &p.groups[gi]
		batchSubmits.Add(1)
		batchItems.Add(int64(len(g.idx)))
		par.ForChunks("gemm_batch", len(g.idx), 1, g.body)
	}
	for _, s := range p.skips {
		transposeInto(p.calls[s.dst].C, p.calls[s.src].C)
	}
}
