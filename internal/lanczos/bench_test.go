package lanczos

import (
	"math/rand"
	"strconv"
	"testing"
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
