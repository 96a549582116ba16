package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestEigSymProjectedMatchesEigSymWork: the projections carried through
// the reduction and the QL rotations are the eigenvectors' projections to
// rounding, and the eigenvalues are EigSymWork.Solve's bit for bit — on
// random matrices, one with a zero row (a skipped reflector), orders 0–3
// and more vectors than rows.
func TestEigSymProjectedMatchesEigSymWork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ n, w int }{{0, 2}, {1, 3}, {2, 7}, {3, 7}, {18, 7}, {57, 3}, {108, 7}} {
		a := NewMatrix(c.n, c.n)
		for i := 0; i < c.n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				if i == c.n/2 || j == c.n/2 {
					v = 0
				}
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		p := NewMatrix(c.n, c.w)
		for i := range p.Data {
			p.Data[i] = rng.NormFloat64()
		}
		vals, vecs := make([]float64, c.n), NewMatrix(c.n, c.n)
		if err := NewEigSymWork(c.n).Solve(a, vals, vecs); err != nil {
			t.Fatal(err)
		}
		got, proj := make([]float64, c.n), NewMatrix(c.n, c.w)
		proj.CopyFrom(p)
		work := NewMatrix(c.n, c.n)
		work.CopyFrom(a)
		if err := EigSymProjected(work, got, proj); err != nil {
			t.Fatal(err)
		}
		for k := range vals {
			if math.Float64bits(got[k]) != math.Float64bits(vals[k]) {
				t.Fatalf("n = %d: eigenvalue %d is %v, Solve gives %v", c.n, k, got[k], vals[k])
			}
			for j := 0; j < c.w; j++ {
				var want, norm float64
				for i := 0; i < c.n; i++ {
					want += vecs.At(i, k) * p.At(i, j)
					norm += p.At(i, j) * p.At(i, j)
				}
				if d := math.Abs(proj.At(k, j) - want); d > 1e-12*math.Sqrt(norm) {
					t.Fatalf("n = %d: projection (%d, %d) is %v, want %v", c.n, k, j, proj.At(k, j), want)
				}
			}
		}
	}
}

func TestEigSymProjectedNonFinite(t *testing.T) {
	a := NewMatrix(4, 4)
	a.Set(1, 2, math.NaN())
	a.Set(2, 1, math.NaN())
	if err := EigSymProjected(a, make([]float64, 4), NewMatrix(4, 2)); err == nil {
		t.Fatal("NaN matrix converged")
	}
}
