package lanczos

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"qframan/internal/linalg"
)

func BenchmarkGAGQRule(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randomSymmetric(rng, 400)
	d := randomVector(rng, 400)
	t, _ := run(b, denseOperator{m}, d, 150)
	r := newRule(t.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.build(t, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGaussVsGAGQ is the quadrature-rule ablation (the paper's §V-E
// choice) at equal k on an operator shaped like the benchmark workloads'
// 81-atom Hessian (n = 243): the plain Gauss rule against the generalized
// averaged one, each reporting the cosine of its density to the exact one
// from the same start vector. The pipeline always builds the averaged rule;
// the root BenchmarkAblation_LanczosGAGQ measures it on a real water box.
func BenchmarkGaussVsGAGQ(b *testing.B) {
	op := blockSparse(b, 81, 1)
	n := op.Dim()
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, op.At(i, j))
		}
	}
	d := randomVector(rand.New(rand.NewSource(3)), n)
	xs := make([]float64, 401)
	for i := range xs {
		xs[i] = -4 + 20*float64(i)/400
	}
	const sigma = 0.3
	want := denseSpectralDensity(m, d, xs, sigma, nil)
	for _, rule := range []struct {
		name string
		gagq bool
	}{{"GAGQ", true}, {"PlainGauss", false}} {
		b.Run(rule.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tri, norm := run(b, op, d, 10)
				got, err := density(tri, norm, xs, sigma, nil, rule.gagq)
				if err != nil {
					b.Fatal(err)
				}
				var dot, gg, ww float64
				for j := range got {
					dot += got[j] * want[j]
					gg += got[j] * got[j]
					ww += want[j] * want[j]
				}
				b.ReportMetric(dot/math.Sqrt(gg*ww), "cos-vs-exact")
			}
		})
	}
}

// BenchmarkSolve is the seven-start-vector solve of one spectrum on a
// block-sparse operator — the benchmark workloads' 81-atom Hessian (n = 243,
// K = 120) and a 10⁴-atom one (n = 30 000, K = 16, so the Lanczos vectors
// stay at 27 MB): the lockstep plan, reused across iterations, against seven
// one-column plans built per solve.
func BenchmarkSolve(b *testing.B) {
	for _, size := range []struct{ atoms, k int }{{81, 120}, {10000, 16}} {
		op := blockSparse(b, size.atoms, 1)
		rng := rand.New(rand.NewSource(2))
		starts := make([][]float64, 7)
		for c := range starts {
			starts[c] = randomVector(rng, op.Dim())
		}
		opt := Options{K: size.k}
		name := "n=" + strconv.Itoa(op.Dim())
		b.Run(name+"/lockstep", func(b *testing.B) {
			p, err := NewPlan(op, len(starts), opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Solve(starts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/seven-runs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range starts {
					run(b, op, d, size.k)
				}
			}
		})
	}
}
