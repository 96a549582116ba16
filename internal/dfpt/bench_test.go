package dfpt

import (
	"testing"

	"qframan/internal/par"
)

func BenchmarkPolarizabilityGamma(b *testing.B) {
	m, res := benchModel(b)
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := Polarizability(m, res, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cycles += resp.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

func BenchmarkPolarizabilityGridCycle(b *testing.B) {
	m, res := benchModel(b)
	opt := DefaultOptions()
	opt.Coulomb = GridCoulomb
	opt.GridSpacing = 0.8
	opt.GridMargin = 4.0
	opt.Tol = 1e12 // single cycle: the paper's "DFPT time per cycle"
	opt.MaxIter = 2
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := Polarizability(m, res, opt)
		if err != nil {
			b.Fatal(err)
		}
		cycles += resp.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// BenchmarkGammaCycle times one steady-state γ-mode cycle — response
// Hamiltonian from the current P⁽¹⁾, P⁽¹⁾ build, Pulay step — on the environment
// of a converged ground state, at width 1, for the fragment sizes of the
// γ-mode workloads (6, 12 and 25 basis functions).
func BenchmarkGammaCycle(b *testing.B) {
	defer par.SetBudget(0)
	par.SetBudget(1)
	for _, fx := range gammaCycleFixtures(b) {
		b.Run(fx.name, func(b *testing.B) {
			env := newCycleEnv(fx.m, fx.ground, nil)
			env.mixer.Reset(0.3)
			for i := 0; i < 20; i++ { // settle p1 near its fixed point
				env.gammaCycle(fx.m.Dip[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.gammaCycle(fx.m.Dip[0])
			}
		})
	}
}
