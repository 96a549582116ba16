package linalg

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qframan/internal/par"
)

// TestGemmWidthInvariance is the kernel-drift gate run by CI at widths 1
// and 4: every trans case of Gemm (and both Gemv forms) must produce
// bit-identical output at any kernel width — far stricter than the 5% drift
// budget, and exactly what the row-sharded design guarantees.
func TestGemmWidthInvariance(t *testing.T) {
	shapes := [][3]int{{216, 40, 40}, {128, 128, 128}, {1000, 32, 32}, {7, 5, 3}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, trans := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			transA, transB := trans[0], trans[1]
			rng := rand.New(rand.NewSource(7))
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB {
				br, bc = n, k
			}
			a := randomMatrix(rng, ar, ac)
			b := randomMatrix(rng, br, bc)
			c0 := randomMatrix(rng, m, n)

			var ref *Matrix
			for _, w := range []int{1, 4} {
				par.SetBudget(w)
				c := NewMatrix(m, n)
				copy(c.Data, c0.Data)
				Gemm(transA, transB, 1.25, a, b, 0.5, c)
				if ref == nil {
					ref = c
					continue
				}
				for i, v := range c.Data {
					if math.Float64bits(v) != math.Float64bits(ref.Data[i]) {
						t.Fatalf("gemm %dx%dx%d transA=%v transB=%v width %d: element %d drifts (%g vs %g)",
							m, k, n, transA, transB, w, i, v, ref.Data[i])
					}
				}
			}
			par.SetBudget(0)
		}
	}
}

func TestGemvWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 300, 200)
	for _, trans := range []bool{false, true} {
		nx, ny := a.Cols, a.Rows
		if trans {
			nx, ny = a.Rows, a.Cols
		}
		x := make([]float64, nx)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var ref []float64
		for _, w := range []int{1, 4} {
			par.SetBudget(w)
			y := make([]float64, ny)
			Gemv(trans, 1.5, a, x, 0, y)
			if ref == nil {
				ref = y
				continue
			}
			for i, v := range y {
				if math.Float64bits(v) != math.Float64bits(ref[i]) {
					t.Fatalf("gemv trans=%v width %d: element %d drifts", trans, w, i)
				}
			}
		}
	}
}

// TestExecuteBatchedWidthInvariance runs a mixed-shape batch — several
// padded shape classes, a literal transpose pair, and one class of 24
// same-shape calls (enough members that the gemm_batch fan-out really splits
// across workers) — through a batch plan at kernel widths {1, 3, NumCPU}.
// Every width must produce bit-identical outputs: grouping, class padding,
// pair skips, and pool width all invisible.
func TestExecuteBatchedWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	shapes := [][3]int{{30, 20, 25}, {33, 40, 31}, {7, 5, 3}, {64, 32, 32}, {1, 9, 1}}
	for i := 0; i < 24; i++ {
		shapes = append(shapes, [3]int{30, 20, 25})
	}

	mk := func() ([]GemmCall, []*Matrix) {
		rng := rand.New(rand.NewSource(17))
		var calls []GemmCall
		var outs []*Matrix
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := randomMatrix(rng, m, k)
			b := randomMatrix(rng, k, n)
			c := NewMatrix(m, n)
			calls = append(calls, GemmCall{Alpha: 1, A: a, B: b, C: c})
			outs = append(outs, c)
		}
		// Transpose pair of the first call: C = Bᵀ·Aᵀ = (A·B)ᵀ.
		first := calls[0]
		ct := NewMatrix(first.C.Cols, first.C.Rows)
		calls = append(calls, GemmCall{
			TransA: true, TransB: true, Alpha: 1, A: first.B, B: first.A, C: ct,
		})
		outs = append(outs, ct)
		return calls, outs
	}

	var ref []*Matrix
	for _, w := range []int{1, 3, runtime.NumCPU()} {
		par.SetBudget(w)
		calls, outs := mk()
		PlanBatch(calls).Run()
		if ref == nil {
			ref = outs
			continue
		}
		for i := range outs {
			for j, v := range outs[i].Data {
				if math.Float64bits(v) != math.Float64bits(ref[i].Data[j]) {
					t.Fatalf("width %d: call %d element %d differs from width 1", w, i, j)
				}
			}
		}
	}
}
