package linalg

import (
	"fmt"
	"sync/atomic"

	"qframan/internal/par"
)

// This file is the host side of the elastic batched-GEMM offload (paper
// §V-C, Fig. 5): collect a phase's small independent GEMMs and run them as one
// "gemm_batch" kernel that fans across batch members. Everything that does not
// depend on the operands' values (validation, kernel choice) is resolved once,
// in PlanBatch; a run is BatchPlan.Run. Every member runs at its true shape
// through the kernel a plain Gemm of that shape would take, so a batched call
// is bit-identical to a plain Gemm (gemmref is the test reference).

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

var batchSubmits, batchItems atomic.Int64

// GemmBatchStats counts the plan runs and the calls they executed. It keeps
// the par.ElasticStats shape only because bench/ compiles against it; every
// run is one submit and its own flush, so Merged is always 0.
func GemmBatchStats() par.ElasticStats {
	n := batchSubmits.Load()
	return par.ElasticStats{Submits: n, Items: batchItems.Load(), Flushes: n}
}

// BatchPlan is a list of independent GemmCalls with every call's shapes
// validated and its kernel chosen (mixed-shape lists are legal). The plan's
// ops name the calls' matrices, so its operands are never re-pointed: between
// runs callers change what the matrices hold, not which matrices a call
// names. One Run at a time.
type BatchPlan struct {
	ops  []GemmOp
	body func(chunk, lo, hi int) // the gemm_batch kernel, bound once so Run allocates nothing
}

// PlanBatch validates and plans a call list. A call whose inner dimensions
// disagree or whose C has the wrong shape panics here, on the caller's
// goroutine, like Gemm — not later inside a kernel worker.
func PlanBatch(calls []GemmCall) *BatchPlan {
	p := &BatchPlan{ops: make([]GemmOp, len(calls))}
	for i := range calls {
		c := &calls[i]
		if !p.ops[i].set(c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, c.C) {
			panic(fmt.Sprintf("linalg: Gemm shape mismatch in batch call %d", i))
		}
	}
	// Each call runs at its true shape on one worker, with the kernel its
	// shape selects — parallelism comes from fanning across batch members,
	// so profiling sees one flat "gemm_batch" region with no nested kernels.
	p.body = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ops[i].inline()
		}
	}
	return p
}

// Run executes the planned list on the operands' current contents as one
// gemm_batch kernel and blocks until every call's C is final.
func (p *BatchPlan) Run() {
	batchSubmits.Add(1)
	batchItems.Add(int64(len(p.ops)))
	par.ForChunks("gemm_batch", len(p.ops), 1, p.body)
}
