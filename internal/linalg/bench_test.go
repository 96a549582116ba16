package linalg

import (
	"fmt"
	"math/rand"
	"testing"

	"qframan/internal/par"
)

// Benchmark shapes mirror the engine's hot spots: grid-batch GEMMs
// (points×basis×basis) and SCF eigensolves.

func benchmarkGemm(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, m, k)
	bb := randomMatrix(rng, k, n)
	c := NewMatrix(m, n)
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, false, 1, a, bb, 0, c)
	}
	b.ReportMetric(float64(GemmFLOPs(m, k, n)*int64(b.N))/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemm_GridBatch(b *testing.B)  { benchmarkGemm(b, 216, 40, 40) }
func BenchmarkGemm_Square128(b *testing.B)  { benchmarkGemm(b, 128, 128, 128) }
func BenchmarkGemm_TallSkinny(b *testing.B) { benchmarkGemm(b, 1000, 32, 32) }

// BenchmarkGemm_Fragment is the crossover ladder behind gemmDirectShape: every
// shape runs through one bound op with each kernel forced in turn, at width
// 1. Squares bracket the threshold; the named groups are the four products of
// one P⁽¹⁾ build (nv×n·n×n, nv×n·n×no, n×nv·nv×no, n×no·no×n) on water, the
// water dimer and capped glycine, and grid-2w's per-batch pair.
func BenchmarkGemm_Fragment(b *testing.B) {
	defer par.SetBudget(0)
	par.SetBudget(1)
	type shape struct {
		name           string
		transA, transB bool
		m, k, n        int
	}
	var shapes []shape
	for _, n := range []int{6, 12, 24, 36, 48} {
		shapes = append(shapes, shape{fmt.Sprintf("sq%d", n), false, false, n, n, n})
	}
	for _, f := range []struct {
		name      string
		n, no, nv int
	}{{"water", 6, 4, 2}, {"dimer", 12, 8, 4}, {"glycine", 25, 15, 10}} {
		shapes = append(shapes,
			shape{f.name + "_tn", true, false, f.nv, f.n, f.n},
			shape{f.name + "_nn1", false, false, f.nv, f.n, f.no},
			shape{f.name + "_nn2", false, false, f.n, f.nv, f.no},
			shape{f.name + "_nt", false, true, f.n, f.no, f.n})
	}
	shapes = append(shapes,
		shape{"grid_nn", false, false, 216, 6, 6},
		shape{"grid_tn", true, false, 6, 216, 6})
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		ar, ac := sh.m, sh.k
		if sh.transA {
			ar, ac = ac, ar
		}
		br, bc := sh.k, sh.n
		if sh.transB {
			br, bc = bc, br
		}
		op := BindGemm(sh.transA, sh.transB, 1, randomMatrix(rng, ar, ac), randomMatrix(rng, br, bc), 0, NewMatrix(sh.m, sh.n))
		for _, direct := range []bool{true, false} {
			kernel := "blocked"
			if direct {
				kernel = "direct"
			}
			b.Run(fmt.Sprintf("%s_%dx%dx%d/%s", sh.name, sh.m, sh.k, sh.n, kernel), func(b *testing.B) {
				op.direct = direct
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.Run()
				}
			})
		}
	}
}

// BenchmarkEigSym is the symmetric eigensolve at the orders of the fragment
// engine's Hamiltonians (water, water dimer, capped glycine, a residue–water
// pair): the workspace form the SCF loop calls against the allocating
// one-shot.
func BenchmarkEigSym(b *testing.B) {
	for _, n := range []int{6, 12, 25, 40} {
		rng := rand.New(rand.NewSource(2))
		a := randomSymmetric(rng, n)
		b.Run("work/"+itoa(n), func(b *testing.B) {
			w, vals, vecs := NewEigSymWork(n), make([]float64, n), NewMatrix(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Solve(a, vals, vecs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("alloc/"+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				EigSym(a)
			}
		})
	}
}

// BenchmarkEigSymProjected is the exact spectral route's solve on the
// workloads' Hessian orders (n ≤ K = 120), seven start vectors: the
// eigenvectors formed and projected on, against the projections carried
// through the solve.
func BenchmarkEigSymProjected(b *testing.B) {
	const cols = 7
	for _, n := range []int{18, 57, 108} {
		rng := rand.New(rand.NewSource(2))
		a := randomSymmetric(rng, n)
		d := NewMatrix(n, cols)
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
		work, vals, p := NewMatrix(n, n), make([]float64, n), NewMatrix(n, cols)
		b.Run("eigenvectors/"+itoa(n), func(b *testing.B) {
			w, vecs := NewEigSymWork(n), NewMatrix(n, n)
			for i := 0; i < b.N; i++ {
				if err := w.Solve(a, vals, vecs); err != nil {
					b.Fatal(err)
				}
				Gemm(true, false, 1, vecs, d, 0, p)
			}
		})
		b.Run("carried/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				work.CopyFrom(a)
				p.CopyFrom(d)
				if err := EigSymProjected(work, vals, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuadrature is the eigen-solve behind one GAGQ rule at the
// benchmark workloads' K = 120 (T̂ of order 239): the first-row routine the
// spectral solver calls, against the full-eigenvector reference it replaced.
func BenchmarkQuadrature(b *testing.B) {
	d0, e0 := gagqShape(rand.New(rand.NewSource(4)), 120)
	b.Run("first-row", func(b *testing.B) {
		d, e, z := make([]float64, len(d0)), make([]float64, len(d0)), make([]float64, len(d0))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(d, d0)
			copy(e, e0)
			if err := EigSymTridiagFirstRow(d, e, z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EigSymTridiag(d0, e0)
		}
	})
}

func itoa(v int) string {
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
