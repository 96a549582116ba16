package linalg_test

import (
	"math/rand"
	"strings"
	"testing"

	"qframan/internal/linalg"
	"qframan/internal/par"
)

// planFixture builds a mixed list — three shape classes, mixed trans flags,
// and a literal transpose pair (the dfpt naive-h1 pattern) — over operands
// the tests refill between runs.
func planFixture() (calls []linalg.GemmCall, inputs []*linalg.Matrix) {
	for _, sh := range [][3]int{{57, 13, 13}, {40, 13, 9}, {7, 33, 40}, {57, 11, 13}, {64, 32, 32}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := linalg.NewMatrix(k, m) // used transposed
		b := linalg.NewMatrix(k, n)
		calls = append(calls, linalg.GemmCall{TransA: true, Alpha: 1.5, A: a, B: b, C: linalg.NewMatrix(m, n)})
		inputs = append(inputs, a, b)
	}
	x, v := linalg.NewMatrix(57, 13), linalg.NewMatrix(57, 13)
	calls = append(calls,
		linalg.GemmCall{TransA: true, Alpha: 1, A: x, B: v, C: linalg.NewMatrix(13, 13)},
		linalg.GemmCall{TransA: true, Alpha: 1, A: v, B: x, C: linalg.NewMatrix(13, 13)})
	return calls, append(inputs, x, v)
}

// TestBatchPlanReuse: one plan run three times, operands refilled between
// runs, reproduces the reference bit for bit each time and advances every
// counter by the same amount each time — a plan holds no per-run state.
func TestBatchPlanReuse(t *testing.T) {
	calls, inputs := planFixture()
	plan := linalg.PlanBatch(calls)
	rng := rand.New(rand.NewSource(45))
	var ops linalg.Ops
	var first [4]int64
	for run := 0; run < 3; run++ {
		for _, m := range inputs {
			fillMat(m, rng)
		}
		before := [4]int64{ops.GEMMCalls.Load(), ops.FLOPs.Load(), ops.TransposeSkips.Load(), ops.BatchCalls.Load()}
		plan.Run(&ops)
		var delta [4]int64
		for i, v := range [4]int64{ops.GEMMCalls.Load(), ops.FLOPs.Load(), ops.TransposeSkips.Load(), ops.BatchCalls.Load()} {
			delta[i] = v - before[i]
		}
		if run == 0 {
			first = delta
			if delta[0] != int64(len(calls))-1 || delta[2] != 1 || delta[3] != 3 {
				t.Fatalf("first run counted GEMMs/FLOPs/skips/batches %v, want %d executed, 1 skip, 3 classes", delta, len(calls)-1)
			}
		} else if delta != first {
			t.Fatalf("run %d advanced GEMMs/FLOPs/skips/batches by %v, run 0 by %v", run, delta, first)
		}
		for i := range calls {
			c := &calls[i]
			want := linalg.NewMatrix(c.C.Rows, c.C.Cols)
			refGemm(c.TransA, c.TransB, c.Alpha, c.A, c.B, 0, want)
			if j, ok := bitEqual(c.C.Data, want.Data); !ok {
				t.Fatalf("run %d call %d: C[%d] differs from reference", run, i, j)
			}
		}
	}
}

// TestBatchPlanRunAllocationCeiling: grouping, pair detection and the kernel
// bodies are the plan's, so a steady-state Run at width 1 builds nothing.
func TestBatchPlanRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	calls, inputs := planFixture()
	rng := rand.New(rand.NewSource(46))
	for _, m := range inputs {
		fillMat(m, rng)
	}
	plan := linalg.PlanBatch(calls)
	var ops linalg.Ops
	plan.Run(&ops) // warm the pack-buffer pool
	if allocs := testing.AllocsPerRun(10, func() { plan.Run(&ops) }); allocs > 0 {
		t.Fatalf("BatchPlan.Run allocates %v objects per run, want 0", allocs)
	}
}

// TestPlanBatchRejectsMismatchedShapes: a call Gemm would refuse is refused
// at plan time, on the caller's goroutine and with the call's index — the
// batch kernels take their shapes on trust inside par workers, where a panic
// is beyond any recover.
func TestPlanBatchRejectsMismatchedShapes(t *testing.T) {
	mat := linalg.NewMatrix
	good := linalg.GemmCall{Alpha: 1, A: mat(4, 3), B: mat(3, 5), C: mat(4, 5)}
	for _, tc := range []struct {
		name string
		bad  linalg.GemmCall
	}{
		{"inner dimension", linalg.GemmCall{Alpha: 1, A: mat(4, 3), B: mat(2, 5), C: mat(4, 5)}},
		{"C rows", linalg.GemmCall{Alpha: 1, A: mat(4, 3), B: mat(3, 5), C: mat(3, 5)}},
		{"C cols", linalg.GemmCall{TransB: true, Alpha: 1, A: mat(4, 3), B: mat(5, 3), C: mat(4, 6)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := planPanic([]linalg.GemmCall{good, tc.bad})
			if !strings.Contains(msg, "shape mismatch") || !strings.Contains(msg, "call 1") {
				t.Fatalf("PlanBatch panicked with %q, want a shape mismatch naming call 1", msg)
			}
		})
	}
	if msg := planPanic([]linalg.GemmCall{good}); msg != "" {
		t.Fatalf("PlanBatch rejected a well-formed list: %s", msg)
	}
}

// planPanic returns the message PlanBatch panics with on calls, "" if none.
func planPanic(calls []linalg.GemmCall) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	linalg.PlanBatch(calls)
	return ""
}

// TestGemmOpReuse: one bound op run repeatedly, operands refilled between
// runs, reproduces the reference bit for bit each time — on either side of the
// direct/blocked crossover, through the syrk path, with a beta that reads C —
// and a steady-state Run at width 1 allocates nothing.
func TestGemmOpReuse(t *testing.T) {
	defer par.SetBudget(0)
	par.SetBudget(1)
	rng := rand.New(rand.NewSource(47))
	for _, tc := range []struct {
		name           string
		transA, transB bool
		m, k, n        int
		beta           float64
		syrk           bool
	}{
		{"direct tn", true, false, 2, 6, 6, 0, false},
		{"direct nt beta", false, true, 6, 4, 6, -0.5, false},
		{"blocked nn", false, false, 31, 31, 31, 0, false},
		{"blocked tt beta", true, true, 33, 9, 40, 1, false},
		{"direct syrk", false, true, 7, 5, 7, 0, true},
		{"blocked syrk", true, false, 33, 12, 33, 0, true},
	} {
		ar, ac := tc.m, tc.k
		if tc.transA {
			ar, ac = ac, ar
		}
		br, bc := tc.k, tc.n
		if tc.transB {
			br, bc = bc, br
		}
		a, c := linalg.NewMatrix(ar, ac), linalg.NewMatrix(tc.m, tc.n)
		b := a
		if !tc.syrk {
			b = linalg.NewMatrix(br, bc)
		}
		op := linalg.BindGemm(tc.transA, tc.transB, 1.5, a, b, tc.beta, c)
		for run := 0; run < 3; run++ {
			fillMat(a, rng)
			fillMat(b, rng)
			fillMat(c, rng)
			want := c.Clone()
			refGemm(tc.transA, tc.transB, 1.5, a, b, tc.beta, want)
			op.Run()
			if i, ok := bitEqual(c.Data, want.Data); !ok {
				t.Fatalf("%s run %d: C[%d] differs from reference", tc.name, run, i)
			}
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, op.Run); allocs > 0 {
			t.Errorf("%s: GemmOp.Run allocates %v objects per run, want 0", tc.name, allocs)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BindGemm accepted mismatched shapes")
		}
	}()
	linalg.BindGemm(false, false, 1, linalg.NewMatrix(4, 3), linalg.NewMatrix(2, 5), 0, linalg.NewMatrix(4, 5))
}
