package dfpt

import (
	"testing"

	"qframan/internal/par"
)

// BenchmarkPolarizabilityGamma times one γ-mode polarizability — the direct
// charge-space solve, three cycles — in a reused Workspace at width 1, on the
// fragment sizes of the γ-mode workloads (6, 12 and 25 basis functions).
func BenchmarkPolarizabilityGamma(b *testing.B) {
	defer par.SetBudget(0)
	par.SetBudget(1)
	for _, fx := range gammaFixtures(b) {
		if fx.name != "water" && fx.name != "water dimer" && fx.name != "glycine" {
			continue
		}
		b.Run(fx.name, func(b *testing.B) {
			var w Workspace
			cycles := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := w.Polarizability(fx.m, fx.ground, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				cycles += resp.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
		})
	}
}

// BenchmarkPolarizabilityGrid times one grid-mode polarizability of water on
// the coarse grid — the grid environment and the pair-space solve, one cycle
// per direction — and reports the cycles.
func BenchmarkPolarizabilityGrid(b *testing.B) {
	m, res := waterModel(b)
	opt := coarseGridOptions()
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

// BenchmarkGridAlphaDerivatives times what a gapped grid-mode fragment's
// reference solve does beyond the γ route to replace its 6N displaced grid
// polarizabilities: GridAlphaDerivatives — the grid environment with second
// derivatives, one α solve, six transposed Poisson solves, the adjoint pass
// over the grid and the assembly — on the coarse grid, at the kernel width
// the environment sets (QF_KERNEL_THREADS).
func BenchmarkGridAlphaDerivatives(b *testing.B) {
	for _, fx := range gammaFixtures(b) {
		if fx.name != "water" && fx.name != "glycine" {
			continue
		}
		b.Run(fx.name, func(b *testing.B) {
			_, nr, err := Responses(fx.m, fx.ground, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := GridAlphaDerivatives(fx.m, fx.ground, nr, coarseGridOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFieldDerivatives times what a gapped γ-mode fragment's reference
// solve does beyond the polarizability to replace its 6N displaced
// polarizabilities: fieldResponse (the polarizability plus the six
// second-order responses) and scf.Model.FieldDerivatives, at width 1.
func BenchmarkFieldDerivatives(b *testing.B) {
	defer par.SetBudget(0)
	par.SetBudget(1)
	for _, fx := range gammaFixtures(b) {
		if fx.name != "water" && fx.name != "water dimer" && fx.name != "glycine" {
			continue
		}
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, fr, err := fieldResponse(fx.m, fx.ground, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				fx.m.FieldDerivatives(fx.ground, fr)
			}
		})
	}
}

// BenchmarkNuclearHessian times what a gapped fragment's reference does to
// replace its 6N displaced SCF solves: Responses (the polarizability, the six
// second-order field responses and the 3N nuclear ones on one I − χ·Γ) and
// scf.Model.NuclearHessian, at width 1.
func BenchmarkNuclearHessian(b *testing.B) {
	defer par.SetBudget(0)
	par.SetBudget(1)
	for _, fx := range gammaFixtures(b) {
		if fx.name != "water" && fx.name != "water dimer" && fx.name != "glycine" {
			continue
		}
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, nr, err := Responses(fx.m, fx.ground, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				fx.m.NuclearHessian(fx.ground, nr)
			}
		})
	}
}
