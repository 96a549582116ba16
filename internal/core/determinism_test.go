package core

import (
	"crypto/sha256"
	"math"
	"runtime"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/par"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// kernelWidths are the par budgets the determinism property is checked at:
// serial, an odd width that never divides the chunk counts evenly, and
// whatever the host has.
func kernelWidths() []int {
	return []int{1, 3, runtime.NumCPU()}
}

func waterFragment() *fragment.Fragment {
	theta := 104.52 * math.Pi / 180
	return &fragment.Fragment{
		Els: []constants.Element{constants.O, constants.H, constants.H},
		Pos: []geom.Vec3{
			{},
			geom.V(0.9572, 0, 0),
			geom.V(0.9572*math.Cos(theta), 0.9572*math.Sin(theta), 0),
		},
		GlobalIdx: []int{0, 1, 2},
		NumReal:   3,
		Coeff:     1,
	}
}

// TestFragmentDataBitIdenticalAcrossKernelWidths is ISSUE 5's determinism
// property: the same fragment computed at par widths 1, 3, and NumCPU must
// produce bit-identical FragmentData — checked both structurally (BitEqual)
// and through the store codec (the bytes that content addressing and
// crash-resume dedup hash). The grid-Coulomb pipeline is used because it
// exercises every parallel kernel family: batched GEMMs, the Poisson
// sine transforms and boundary-moment reduction, the grid orbital and pair kernels, and
// the Forces chunk-accumulator combine. The engine's displacement partition
// runs at the same width as the kernels, so neither width is physics.
func TestFragmentDataBitIdenticalAcrossKernelWidths(t *testing.T) {
	opt := hessian.DefaultJobOptions()
	opt.DFPT.Coulomb = dfpt.GridCoulomb
	opt.DFPT.GridSpacing = 0.8
	opt.DFPT.GridMargin = 4.0

	defer par.SetBudget(0)
	var ref *hessian.FragmentData
	var refSum [sha256.Size]byte
	for _, w := range kernelWidths() {
		par.SetBudget(w)
		data, _, err := hessian.ComputeFragment(waterFragment(), opt, w)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		blob, err := store.Encode(data)
		if err != nil {
			t.Fatalf("width %d: encode: %v", w, err)
		}
		sum := sha256.Sum256(blob)
		if ref == nil {
			ref, refSum = data, sum
			continue
		}
		if !data.BitEqual(ref) {
			t.Fatalf("width %d: FragmentData differs bitwise from width 1", w)
		}
		if sum != refSum {
			t.Fatalf("width %d: codec hash %x differs from width 1's %x", w, sum, refSum)
		}
	}
}

// TestSpectrumBitIdenticalAcrossKernelWidths runs the full pipeline
// (fragmentation → scheduled displacement loops → assembly → Lanczos
// spectrum) at kernel widths 1 and NumCPU and requires the spectra to match
// to the last float64 bit — the end-to-end form of the same guarantee.
func TestSpectrumBitIdenticalAcrossKernelWidths(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)
	run := func(width int) *Result {
		par.SetBudget(width)
		cfg := DefaultConfig()
		cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 200, 4000, 10
		res, err := ComputeRaman(sys, cfg)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return res
	}
	defer par.SetBudget(0)
	a := run(1)
	b := run(runtime.NumCPU())
	if len(a.Spectrum.Intensity) != len(b.Spectrum.Intensity) {
		t.Fatalf("spectrum lengths differ: %d vs %d", len(a.Spectrum.Intensity), len(b.Spectrum.Intensity))
	}
	for i := range a.Spectrum.Intensity {
		if math.Float64bits(a.Spectrum.Intensity[i]) != math.Float64bits(b.Spectrum.Intensity[i]) {
			t.Fatalf("intensity[%d] differs: %x vs %x", i,
				math.Float64bits(a.Spectrum.Intensity[i]), math.Float64bits(b.Spectrum.Intensity[i]))
		}
	}
}
