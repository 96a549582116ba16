package raman

import (
	"errors"
	"math"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/lanczos"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/structure"
)

// dimerGlobal runs the full QF pipeline on a single water dimer and returns
// the assembled global quantities.
func dimerGlobal(t *testing.T) *hessian.Global {
	t.Helper()
	sys := structure.BuildWaterDimerSystem(1)
	dec, err := fragment.Decompose(sys, fragment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := hessian.DefaultJobOptions()
	datas := make([]*hessian.FragmentData, len(dec.Fragments))
	for i := range dec.Fragments {
		datas[i], _, err = hessian.ComputeFragment(&dec.Fragments[i], opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	g, err := hessian.Assemble(dec, sys.Masses(), datas, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDenseModesWaterDimer(t *testing.T) {
	g := dimerGlobal(t)
	modes, err := DenseModes(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes.Wavenumbers) != 18 {
		t.Fatalf("modes = %d, want 18", len(modes.Wavenumbers))
	}
	// O–H stretch band present near 3600–3800.
	found := false
	for _, w := range modes.Wavenumbers {
		if w > 3400 && w < 3900 {
			found = true
		}
	}
	if !found {
		t.Error("no O–H stretch modes found")
	}
	// Activities non-negative.
	for p, a := range modes.Activity {
		if a < 0 {
			t.Fatalf("negative activity %g at mode %d", a, p)
		}
	}
}

func TestLanczosSpectrumMatchesDense(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep = 200, 4000, 5
	opt.Sigma = 20
	opt.LanczosK = 18 * 2 // ≥ dim: exact subspace

	dense, err := DenseSpectrum(g, opt, 50)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := LanczosSpectrum(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(dense.Freq) != len(lan.Freq) {
		t.Fatal("axis mismatch")
	}
	if sim := CosineSimilarity(dense, lan); sim < 0.995 {
		t.Fatalf("dense vs Lanczos cosine similarity %v", sim)
	}
}

func TestLanczosSpectrumSmallK(t *testing.T) {
	// Even with k far below the dimension the GAGQ spectrum should track
	// the dense result closely.
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep = 200, 4000, 5
	opt.Sigma = 40
	opt.LanczosK = 8

	dense, err := DenseSpectrum(g, opt, 50)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := LanczosSpectrum(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sim := CosineSimilarity(dense, lan); sim < 0.9 {
		t.Fatalf("small-k cosine similarity %v", sim)
	}
}

func TestNormalize(t *testing.T) {
	s := &Spectrum{Freq: []float64{1, 2, 3}, Intensity: []float64{2, 8, 4}}
	s.Normalize()
	if s.Intensity[1] != 1 || s.Intensity[0] != 0.25 {
		t.Fatalf("normalized intensities %v", s.Intensity)
	}
	z := &Spectrum{Freq: []float64{1}, Intensity: []float64{0}}
	z.Normalize() // must not panic or divide by zero
	if z.Intensity[0] != 0 {
		t.Fatal("zero spectrum changed")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := &Spectrum{Intensity: []float64{1, 0, 0}}
	b := &Spectrum{Intensity: []float64{1, 0, 0}}
	c := &Spectrum{Intensity: []float64{0, 1, 0}}
	if CosineSimilarity(a, b) != 1 {
		t.Fatal("identical spectra similarity != 1")
	}
	if CosineSimilarity(a, c) != 0 {
		t.Fatal("orthogonal spectra similarity != 0")
	}
	z := &Spectrum{Intensity: []float64{0, 0, 0}}
	if CosineSimilarity(a, z) != 0 {
		t.Fatal("zero spectrum similarity != 0")
	}
}

func emptyHessian(t *testing.T, n int) *hessian.Sparse {
	t.Helper()
	h, err := hessian.NewBuilder(n).Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLanczosSpectrumRequiresAlpha(t *testing.T) {
	g := &hessian.Global{H: emptyHessian(t, 3), Masses: []float64{1}}
	if _, err := LanczosSpectrum(g, DefaultOptions()); err == nil {
		t.Fatal("accepted missing polarizability derivatives")
	}
}

// TestSpectrumAxis: point i is FreqMin + i·FreqStep and FreqMax is on the
// axis whenever the step divides the range — for fractional steps too, which
// an accumulated x += FreqStep lets drift (0.05 dropped 3500 cm⁻¹, 0.1 ended
// at 3999.9999999974575).
func TestSpectrumAxis(t *testing.T) {
	for _, c := range []struct {
		min, max, step float64
		points         int
	}{
		{100, 200, 50, 3},
		{100, 3500, 0.05, 68001},
		{0, 4000, 0.1, 40001},
		{50, 4000, 5, 791},
		{0, 10, 3, 4}, // 0, 3, 6, 9: the step does not divide the range
	} {
		opt := Options{FreqMin: c.min, FreqMax: c.max, FreqStep: c.step, Sigma: 5, LanczosK: 4}
		xs := opt.axis()
		if len(xs) != c.points {
			t.Fatalf("(%v, %v, %v): %d points, want %d", c.min, c.max, c.step, len(xs), c.points)
		}
		for i, x := range xs {
			if want := c.min + float64(i)*c.step; x != want {
				t.Fatalf("(%v, %v, %v): point %d is %v, want %v", c.min, c.max, c.step, i, x, want)
			}
		}
		if last := xs[len(xs)-1]; math.Abs(math.Remainder(c.max-c.min, c.step)) < 1e-9 && last != c.max {
			t.Fatalf("(%v, %v, %v): axis ends at %v", c.min, c.max, c.step, last)
		}
	}
	for _, opt := range []Options{
		{FreqMin: 200, FreqMax: 100, FreqStep: 5},
		{FreqMin: 0, FreqMax: 100, FreqStep: 0},
		{FreqMin: 0, FreqMax: 100, FreqStep: -1},
		{FreqMin: 200, FreqMax: 100, FreqStep: -5},
	} {
		if xs := opt.axis(); xs != nil {
			t.Fatalf("%+v: axis of %d points, want none", opt, len(xs))
		}
	}
}

func TestIRSpectrumWaterDimer(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep = 200, 4000, 5
	opt.Sigma = 20
	opt.LanczosK = 36

	dense, err := DenseIRSpectrum(g, opt, 50)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := LanczosIRSpectrum(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sim := CosineSimilarity(dense, lan); sim < 0.99 {
		t.Fatalf("dense vs Lanczos IR cosine similarity %v", sim)
	}
	// Water's bend (~1650) is strongly IR active: require real intensity
	// there relative to the maximum.
	dense.Normalize()
	var bend float64
	for i, f := range dense.Freq {
		if f > 1500 && f < 1800 && dense.Intensity[i] > bend {
			bend = dense.Intensity[i]
		}
	}
	if bend < 0.05 {
		t.Fatalf("bend region IR intensity %v — water bend should be IR active", bend)
	}
}

func TestIRRequiresDipoleDerivatives(t *testing.T) {
	g := &hessian.Global{H: emptyHessian(t, 3), Masses: []float64{1}}
	if _, err := DenseIRSpectrum(g, DefaultOptions(), 0); err == nil {
		t.Fatal("accepted missing dipole derivatives")
	}
	if _, err := LanczosIRSpectrum(g, DefaultOptions()); err == nil {
		t.Fatal("accepted missing dipole derivatives")
	}
}

func TestSpectraNonNegative(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep = 0, 4000, 7
	opt.Sigma = 15
	opt.LanczosK = 30
	for name, spec := range map[string]func() (*Spectrum, error){
		"raman-lanczos": func() (*Spectrum, error) { return LanczosSpectrum(g, opt) },
		"raman-dense":   func() (*Spectrum, error) { return DenseSpectrum(g, opt, 0) },
		"ir-lanczos":    func() (*Spectrum, error) { return LanczosIRSpectrum(g, opt) },
		"ir-dense":      func() (*Spectrum, error) { return DenseIRSpectrum(g, opt, 0) },
	} {
		s, err := spec()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range s.Intensity {
			// GAGQ weights are squares; intensities must never go negative
			// beyond tiny numerical noise.
			if v < -1e-9 {
				t.Fatalf("%s: negative intensity %g at %v cm⁻¹", name, v, s.Freq[i])
			}
		}
	}
}

// TestNonFiniteHessianIsTypedAndPermanent: a NaN in the Hessian poisons
// every recurrence; the quadrature's eigen-solve then cannot converge, and
// the spectrum comes back as lanczos.ErrQuadrature — an error the runtime
// must not retry — instead of a panic that would take a daemon down.
func TestNonFiniteHessianIsTypedAndPermanent(t *testing.T) {
	g := dimerGlobal(t)
	g.H.Val[len(g.H.Val)/2] = math.NaN()
	opt := DefaultOptions()
	opt.LanczosK = 12
	for name, solve := range map[string]func(*hessian.Global, Options) (*Spectrum, error){
		"raman": LanczosSpectrum, "ir": LanczosIRSpectrum,
	} {
		_, err := solve(g, opt)
		if !errors.Is(err, lanczos.ErrQuadrature) {
			t.Fatalf("%s: NaN Hessian gave %v, want ErrQuadrature", name, err)
		}
		if faults.Classify(err) != faults.Deterministic {
			t.Fatalf("%s: %v classifies as transient", name, err)
		}
	}
}

// TestLanczosSpectrumRecordsSolverCounts: with a scope attached the solve
// reports its steps, β-breakdowns, skipped start vectors and swept steps.
// The dimer's 18 coordinates minus three projected translations leave 15
// dimensions, so at K = 36 every recurrence that starts must break down —
// and a recurrence that exhausts its Krylov space sweeps on the way.
func TestLanczosSpectrumRecordsSolverCounts(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.LanczosK = 36
	reg := obs.NewRegistry()
	opt.Obs = obs.NewScope(nil, reg)
	if _, err := LanczosSpectrum(g, opt); err != nil {
		t.Fatal(err)
	}
	steps := reg.Counter(obs.MetricLanczosSteps).Value()
	early := reg.Counter(obs.MetricLanczosEarlyStops).Value()
	skipped := reg.Counter(obs.MetricLanczosSkipped).Value()
	if early+skipped != 7 || early == 0 {
		t.Fatalf("%d early stops + %d skipped starts, want 7 recurrences accounted for", early, skipped)
	}
	if steps < early || steps > 18*early {
		t.Fatalf("%d steps over %d recurrences of an 18-coordinate problem", steps, early)
	}
	if reorths := reg.Counter(obs.MetricLanczosReorths).Value(); reorths < early || reorths > steps {
		t.Fatalf("%d swept steps over %d steps of %d recurrences", reorths, steps, early)
	}
}

// TestLanczosSpectrumAllocationCeiling: one spectrum allocates the axis, the
// intensities, the start-vector block, the translation vectors and the plan
// (per column: Lanczos vectors, w, α, β, partials, T̂ work vectors, density,
// bound kernels) — a count independent of K, n and the number of steps.
func TestLanczosSpectrumAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	g := dimerGlobal(t)
	opt := DefaultOptions()
	const ceiling = 150
	for _, k := range []int{8, 36} {
		opt.LanczosK = k
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := LanczosSpectrum(g, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("K = %d: %v allocations per spectrum", k, allocs)
		if allocs > ceiling {
			t.Errorf("K = %d: LanczosSpectrum allocates %v objects, ceiling %d", k, allocs, ceiling)
		}
	}
}
