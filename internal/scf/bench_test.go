package scf

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkSolveSCFWater(b *testing.B) {
	els, pos := waterGeometry()
	m, err := NewModel(els, pos)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveSCF(DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSCFGlycine times a cold solve of a 10-atom residue, large
// enough that the charge loop's evaluation count, not per-solve overhead,
// sets the time.
func BenchmarkSolveSCFGlycine(b *testing.B) {
	els, pos := glycineGeometry(b)
	m, err := NewModel(els, pos)
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace(m)
	var evals int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ws.Solve(m, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Iterations
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

func BenchmarkSolveSCFMethaneWarm(b *testing.B) {
	els, pos := methane()
	m, err := NewModel(els, pos)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := m.SolveSCF(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.InitDeltaQ = ref.DeltaQ
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveSCF(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForces(b *testing.B) {
	els, pos := waterGeometry()
	m, _ := NewModel(els, pos)
	res, err := m.SolveSCF(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forces(res)
	}
}

// BenchmarkOccupations times the Fermi-level search and occupation fill for
// the level counts of a water, a water dimer and a larger residue fragment, on
// spectra with a gap at the Fermi level (what SCF iterations see).
func BenchmarkOccupations(b *testing.B) {
	for _, n := range []int{6, 12, 40} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			nocc := 2 * n / 3
			eps := make([]float64, n)
			for i := range eps {
				eps[i] = -1.2 + 0.9*float64(i)/float64(n)
				if i >= nocc {
					eps[i] += 0.4
				}
			}
			occ := make([]float64, n)
			evals := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, e := occupations(eps, 2*nocc, 0.002, occ)
				evals += e
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// BenchmarkPulay times one mixer step with a full history — a ring insert,
// six Dots, the bordered solve and the six-term combination — on vectors the
// size of a water, a water-dimer and a large-residue P⁽¹⁾ (n² = 36, 144, 10⁴).
// The step allocates nothing.
func BenchmarkPulay(b *testing.B) {
	for _, n := range []int{36, 144, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			in, out := make([]float64, n), make([]float64, n)
			for i := range in {
				in[i], out[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			mixer := NewPulay(n, 0.3)
			next := make([]float64, n)
			step := func(k int) {
				// A moving output keeps the residuals independent, so no step
				// takes the cheaper reset path.
				out[k%n] += 0.5
				mixer.Next(in, out, next)
			}
			for k := 0; k < PulayDepth; k++ {
				step(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			if mixer.Resets() != 0 {
				b.Fatalf("%d steps took the reset path", mixer.Resets())
			}
		})
	}
}
