package linalg

// GemmCall is one deferred GEMM invocation: C = alpha·op(A)·op(B) + beta·C.
// The DFPT grid phases produce thousands of small, mutually independent
// GemmCalls per cycle (one or a few per grid batch); collecting them and
// handing the whole set to an Executor is the strip-mining/privatization
// transformation of the paper's elastic workload offloading (§V-C, Fig. 5):
// the CPU-friendly preparation and reduction loops run separately, while the
// accelerator-friendly GEMMs arrive as a single packable workload.
type GemmCall struct {
	TransA, TransB bool
	Alpha          float64
	A, B           *Matrix
	Beta           float64
	C              *Matrix
	// TransferBytes is the host↔device traffic this call would require if
	// offloaded. Zero means "everything moves" (8 bytes per element of A,
	// B, and C); callers that know better — e.g. the DFPT grid phases,
	// whose basis tabulations stay resident on the accelerator across
	// cycles and whose fused kernels return only small reductions — set it
	// explicitly.
	TransferBytes int64
}

// FLOPs returns the floating-point cost of the call.
func (c *GemmCall) FLOPs() int64 {
	m, k := c.A.Rows, c.A.Cols
	if c.TransA {
		m, k = k, m
	}
	n := c.B.Cols
	if c.TransB {
		n = c.B.Rows
	}
	return GemmFLOPs(m, k, n)
}

// Shape returns the (m, k, n) GEMM dimensions.
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

// Executor runs a set of independent GEMMs. Implementations may execute
// them one by one on the host, or pack them into batched workloads for a
// (simulated) accelerator.
type Executor interface {
	Execute(calls []GemmCall)
}

// HostExecutor runs every call directly on the host, counting into Ops.
type HostExecutor struct {
	Ops *Ops
}

// Execute runs the calls through the batch path (batch.go): transpose-pair
// duplicates are strength-reduced, the rest group by padded shape class and
// fan across the kernel pool. Calls write disjoint C matrices (the DFPT grid
// phases build one per batch) and every call computes its true shape with
// the same blocked kernel as a direct Gemm, so batching cannot change
// results.
func (h *HostExecutor) Execute(calls []GemmCall) {
	ExecuteBatched(calls, h.Ops)
}
