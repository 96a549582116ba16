package scf

import (
	"fmt"
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				occupations(eps, 2*nocc, 0.002, occ)
			}
		})
	}
}
