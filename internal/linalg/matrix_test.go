package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	m := randomMatrix(rng, n, n)
	m.Symmetrize()
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatalf("At/Set round trip failed: %v", m.Data)
	}
	m.Add(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Fatalf("Add failed: got %v", m.At(1, 2))
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not a deep copy")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4, 7)
	tr := m.T()
	if tr.Rows != 7 || tr.Cols != 4 {
		t.Fatalf("transpose shape got %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	back := tr.T()
	if back.MaxAbsDiff(m) != 0 {
		t.Fatal("double transpose changed the matrix")
	}
}

func TestSymmetrize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 6, 6)
	s := m.Clone()
	s.Symmetrize()
	if s.MaxAbsDiff(s.T()) != 0 {
		t.Fatal("Symmetrize did not produce a symmetric matrix")
	}
	// (i,j) element should be the average.
	want := 0.5 * (m.At(1, 3) + m.At(3, 1))
	if s.At(1, 3) != want {
		t.Fatalf("Symmetrize value wrong: got %v want %v", s.At(1, 3), want)
	}
}

func TestIdentityTrace(t *testing.T) {
	id := Identity(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("identity (%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

// naiveGemm is an independent reference implementation.
func naiveGemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) *Matrix {
	get := func(m *Matrix, tr bool, i, j int) float64 {
		if tr {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	am, ak := a.Rows, a.Cols
	if transA {
		am, ak = ak, am
	}
	bn := b.Cols
	if transB {
		bn = b.Rows
	}
	out := NewMatrix(am, bn)
	for i := 0; i < am; i++ {
		for j := 0; j < bn; j++ {
			var s float64
			for k := 0; k < ak; k++ {
				s += get(a, transA, i, k) * get(b, transB, k, j)
			}
			out.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
	return out
}

func TestGemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 5, 7, 4
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			a := randomMatrix(rng, m, k)
			if ta {
				a = randomMatrix(rng, k, m)
			}
			b := randomMatrix(rng, k, n)
			if tb {
				b = randomMatrix(rng, n, k)
			}
			c := randomMatrix(rng, m, n)
			want := naiveGemm(ta, tb, 1.3, a, b, 0.7, c)
			got := c.Clone()
			Gemm(ta, tb, 1.3, a, b, 0.7, got)
			if d := got.MaxAbsDiff(want); d > 1e-12 {
				t.Errorf("Gemm(transA=%v, transB=%v) differs from naive by %g", ta, tb, d)
			}
		}
	}
}

func TestGemmBetaZeroIgnoresGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 3, 3)
	b := randomMatrix(rng, 3, 3)
	c := NewMatrix(3, 3)
	for i := range c.Data {
		c.Data[i] = math.NaN() // beta=0 must overwrite, never read
	}
	Gemm(false, false, 1, a, b, 0, c)
	for _, v := range c.Data {
		if math.IsNaN(v) {
			t.Fatal("Gemm with beta=0 read the destination")
		}
	}
}

func TestGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 4, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 4)
	Gemv(false, 2.0, a, x, 0, y)
	for i := 0; i < 4; i++ {
		want := 2.0 * Dot(a.Row(i), x)
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("Gemv row %d: got %v want %v", i, y[i], want)
		}
	}
	// transposed
	xt := make([]float64, 4)
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	yt := make([]float64, 6)
	Gemv(true, 1.0, a, xt, 0, yt)
	at := a.T()
	for i := 0; i < 6; i++ {
		want := Dot(at.Row(i), xt)
		if math.Abs(yt[i]-want) > 1e-12 {
			t.Fatalf("Gemv^T row %d: got %v want %v", i, yt[i], want)
		}
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	if math.Abs(Norm2(x)-math.Sqrt(14)) > 1e-15 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy result %v", y)
	}
	Scal(0.5, y)
	if y[0] != 3 {
		t.Fatalf("Scal result %v", y)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random shapes.
func TestGemmTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(8)
		k := 1 + r.Intn(8)
		n := 1 + r.Intn(8)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		ab := MatMul(false, false, a, b)
		btat := MatMul(true, true, b, a)
		return ab.T().MaxAbsDiff(btat) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
