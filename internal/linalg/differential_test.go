package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/linalg"
	"qframan/internal/linalg/gemmref"
)

// The differential harness: both GEMM kernels (and the batch path built on
// them) must reproduce the naive triple-loop reference bit for bit — not
// approximately — for every trans case, over ragged shapes from 1×1 up through
// sizes straddling the micro-tiles, the direct/blocked crossover (m·k·n =
// 20³) and the 32-padding boundaries.

// fillMat populates a matrix with a mix of magnitudes, signs, and exact
// values (0, powers of two) so bit-level discrepancies have terms to bite on.
func fillMat(m *linalg.Matrix, rng *rand.Rand) {
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Ldexp(1, rng.Intn(40)-20) // exact power of two
		case 2:
			m.Data[i] = -rng.Float64() * 1e8
		case 3:
			m.Data[i] = rng.Float64() * 1e-8
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
}

// bitEqual reports exact bitwise equality (NaN-safe via Float64bits).
func bitEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// refGemm runs the reference on linalg matrices.
func refGemm(transA, transB bool, alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
	gemmref.Gemm(transA, transB, alpha,
		a.Data, a.Rows, a.Cols,
		b.Data, b.Rows, b.Cols,
		beta,
		c.Data, c.Rows, c.Cols)
}

// diffShapes is the ragged-shape sweep: 1×1, degenerate edges (k = 0 and 1),
// shapes around the 2×2 and 4×2 register tiles, the fragment products (2×6×6,
// 6×4×6, 10×25×25), pairs one step either side of the kernel crossover
// (20·20·20 = 25·16·20 = 8000 direct; 20·20·21, 25·16·21 blocked), and odd
// sizes straddling the 32-padding boundary (31/32/33) plus a grid-batch-like
// tall-skinny case.
var diffShapes = [][3]int{
	{1, 1, 1}, {1, 5, 1}, {5, 1, 3}, {2, 3, 1}, {5, 0, 3}, {4, 0, 4}, {6, 1, 6},
	{2, 6, 6}, {6, 4, 6}, {10, 25, 25},
	{20, 20, 20}, {20, 20, 21}, {19, 21, 20}, {21, 20, 20}, {25, 16, 20}, {25, 16, 21},
	{6, 216, 6}, {216, 6, 6}, {217, 6, 7},
	{3, 4, 2}, {4, 4, 4}, {5, 7, 3}, {7, 5, 9},
	{8, 8, 8}, {9, 2, 11}, {13, 17, 6},
	{31, 31, 31}, {32, 32, 32}, {33, 33, 33},
	{31, 33, 32}, {33, 32, 31}, {32, 31, 33},
	{65, 3, 34}, {216, 40, 40}, {37, 64, 1},
}

// TestGemmMatchesReferenceBitwise sweeps every trans case, alpha/beta
// combination, and ragged shape, demanding exact bit equality with the
// naive reference.
func TestGemmMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphaBetas := [][2]float64{{2.25, -1.5}, {0, 0.5}}
	for _, alpha := range []float64{0, 1, -0.5} {
		for _, beta := range []float64{0, 1, -0.5} {
			alphaBetas = append(alphaBetas, [2]float64{alpha, beta})
		}
	}
	for _, sh := range diffShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for ti, tc := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			transA, transB := tc[0], tc[1]
			for _, ab := range alphaBetas {
				alpha, beta := ab[0], ab[1]
				ar, ac := m, k
				if transA {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB {
					br, bc = n, k
				}
				a := linalg.NewMatrix(ar, ac)
				b := linalg.NewMatrix(br, bc)
				fillMat(a, rng)
				fillMat(b, rng)
				c := linalg.NewMatrix(m, n)
				fillMat(c, rng) // nonzero initial C exercises the beta path
				want := c.Clone()

				linalg.Gemm(transA, transB, alpha, a, b, beta, c, nil)
				refGemm(transA, transB, alpha, a, b, beta, want)

				if i, ok := bitEqual(c.Data, want.Data); !ok {
					t.Fatalf("shape %dx%dx%d trans case %d alpha=%g beta=%g: C[%d] = %x, reference %x",
						m, k, n, ti, alpha, beta, i, math.Float64bits(c.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	}
}

// TestGemmSyrkPathMatchesReference pins the symmetry-aware half-compute
// path (A == B, opposite trans, beta == 0) to the reference bitwise,
// including the mirrored upper triangle.
func TestGemmSyrkPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// 28·10·28 and 20·20·20 run the direct kernel, 29·10·29 and 21·19·21 the
	// blocked one; odd m exercises both kernels' diagonal tiles.
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {7, 2}, {20, 20}, {21, 19}, {28, 10}, {29, 10}, {31, 9}, {33, 40}, {64, 17}} {
		m, k := sh[0], sh[1]
		for _, tc := range [][2]bool{{false, true}, {true, false}} {
			transA, transB := tc[0], tc[1]
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			a := linalg.NewMatrix(ar, ac)
			fillMat(a, rng)
			c := linalg.NewMatrix(m, m)
			want := linalg.NewMatrix(m, m)
			linalg.Gemm(transA, transB, 1, a, a, 0, c, nil)
			refGemm(transA, transB, 1, a, a, 0, want)
			if i, ok := bitEqual(c.Data, want.Data); !ok {
				t.Fatalf("syrk %dx%d transA=%v: C[%d] differs from reference", m, k, transA, i)
			}
		}
	}
}

// TestExecuteBatchedMatchesReference runs mixed-shape, mixed-trans batches
// through the batch path against the reference.
func TestExecuteBatchedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var calls []linalg.GemmCall
	var want []*linalg.Matrix
	for _, sh := range diffShapes {
		m, k, n := sh[0], sh[1], sh[2]
		transA := rng.Intn(2) == 0
		transB := rng.Intn(2) == 0
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		a := linalg.NewMatrix(ar, ac)
		b := linalg.NewMatrix(br, bc)
		fillMat(a, rng)
		fillMat(b, rng)
		calls = append(calls, linalg.GemmCall{
			TransA: transA, TransB: transB, Alpha: 1.5, A: a, B: b,
			C: linalg.NewMatrix(m, n),
		})
		w := linalg.NewMatrix(m, n)
		refGemm(transA, transB, 1.5, a, b, 0, w)
		want = append(want, w)
	}
	linalg.ExecuteBatched(calls, nil)
	for i := range calls {
		if j, ok := bitEqual(calls[i].C.Data, want[i].Data); !ok {
			t.Fatalf("call %d: C[%d] differs from reference", i, j)
		}
	}
}

// TestTransposePairSkipBitExact builds a batch with a literal transpose
// pair (the dfpt naive-h1 pattern) and checks that the skipped call's
// result is bit-identical to executing it, and that the skip was counted.
func TestTransposePairSkipBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := linalg.NewMatrix(57, 13) // npts×nloc, odd sizes
	v := linalg.NewMatrix(57, 13)
	fillMat(x, rng)
	fillMat(v, rng)

	m2 := linalg.NewMatrix(13, 13)
	m3 := linalg.NewMatrix(13, 13)
	var ops linalg.Ops
	linalg.ExecuteBatched([]linalg.GemmCall{
		{TransA: true, Alpha: 1, A: x, B: v, C: m2},
		{TransA: true, Alpha: 1, A: v, B: x, C: m3},
	}, &ops)
	if skips := ops.TransposeSkips.Load(); skips != 1 {
		t.Fatalf("TransposeSkips = %d, want 1", skips)
	}
	// Both the executed source and the skipped call match the reference of
	// executing them.
	want := linalg.NewMatrix(13, 13)
	refGemm(true, false, 1, x, v, 0, want)
	if i, ok := bitEqual(m2.Data, want.Data); !ok {
		t.Fatalf("executed m2 differs from reference at %d", i)
	}
	refGemm(true, false, 1, v, x, 0, want)
	if i, ok := bitEqual(m3.Data, want.Data); !ok {
		t.Fatalf("skipped m3 differs from reference at %d", i)
	}
	// The skipped result is the exact transpose of its source.
	for i := 0; i < 13; i++ {
		for j := 0; j < 13; j++ {
			if math.Float64bits(m3.At(i, j)) != math.Float64bits(m2.At(j, i)) {
				t.Fatalf("m3[%d,%d] != m2[%d,%d] bitwise", i, j, j, i)
			}
		}
	}
}
