package raman

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/geom"
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
	return pipelineGlobal(t, structure.BuildWaterDimerSystem(1))
}

// pipelineGlobal runs the full QF pipeline on sys and returns the assembled
// global quantities.
func pipelineGlobal(t *testing.T, sys *structure.System) *hessian.Global {
	t.Helper()
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
	g, err := hessian.AssembleDegraded(dec, sys.Masses(), datas, true, nil)
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

// TestLanczosSpectrumMatchesDense: on both routes — K = 17 runs the
// recurrences through the dimer's whole 15-dimensional Krylov space, K = 36
// ≥ 18 coordinates takes the exact route — the spectrum matches the dense
// one.
func TestLanczosSpectrumMatchesDense(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep = 200, 4000, 5
	opt.Sigma = 20

	dense, err := DenseSpectrum(g, opt, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{17, 36} {
		opt.LanczosK = k
		lan, err := LanczosSpectrum(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(dense.Freq) != len(lan.Freq) {
			t.Fatal("axis mismatch")
		}
		if sim := CosineSimilarity(dense, lan); sim < 0.995 {
			t.Fatalf("K = %d: dense vs Lanczos cosine similarity %v", k, sim)
		}
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

	dense, err := DenseIRSpectrum(g, opt, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{17, 36} { // the Lanczos route, then the exact one
		opt.LanczosK = k
		lan, err := LanczosIRSpectrum(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sim := CosineSimilarity(dense, lan); sim < 0.99 {
			t.Fatalf("K = %d: dense vs Lanczos IR cosine similarity %v", k, sim)
		}
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
	exact := opt
	opt.LanczosK, exact.LanczosK = 12, 30 // below and above the 18 coordinates
	for name, spec := range map[string]func() (*Spectrum, error){
		"raman-lanczos": func() (*Spectrum, error) { return LanczosSpectrum(g, opt) },
		"raman-exact":   func() (*Spectrum, error) { return LanczosSpectrum(g, exact) },
		"raman-dense":   func() (*Spectrum, error) { return DenseSpectrum(g, opt, 0) },
		"ir-lanczos":    func() (*Spectrum, error) { return LanczosIRSpectrum(g, opt) },
		"ir-exact":      func() (*Spectrum, error) { return LanczosIRSpectrum(g, exact) },
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
// every route. The quadrature's eigen-solve cannot converge on the Lanczos
// route (K = 12 < 18 coordinates), nor the dense eigendecomposition on the
// exact route (K = 36) and the dense paths; each spectrum comes back as
// lanczos.ErrQuadrature — an error the runtime must not retry — instead of
// a panic that would take a daemon down.
func TestNonFiniteHessianIsTypedAndPermanent(t *testing.T) {
	g := dimerGlobal(t)
	g.H.Val[len(g.H.Val)/2] = math.NaN()
	opt := DefaultOptions()
	withK := func(k int, solve func(*hessian.Global, Options) (*Spectrum, error)) func() (*Spectrum, error) {
		return func() (*Spectrum, error) {
			o := opt
			o.LanczosK = k
			return solve(g, o)
		}
	}
	for name, solve := range map[string]func() (*Spectrum, error){
		"lanczos raman": withK(12, LanczosSpectrum),
		"lanczos ir":    withK(12, LanczosIRSpectrum),
		"exact raman":   withK(36, LanczosSpectrum),
		"exact ir":      withK(36, LanczosIRSpectrum),
		"dense raman":   func() (*Spectrum, error) { return DenseSpectrum(g, opt, 50) },
		"dense ir":      func() (*Spectrum, error) { return DenseIRSpectrum(g, opt, 50) },
	} {
		_, err := solve()
		if !errors.Is(err, lanczos.ErrQuadrature) {
			t.Fatalf("%s: NaN Hessian gave %v, want ErrQuadrature", name, err)
		}
		if faults.Classify(err) != faults.Deterministic {
			t.Fatalf("%s: %v classifies as transient", name, err)
		}
	}
}

// TestEmptyHessianGivesZeroSpectrum: a Hessian of no coordinates is within
// any K, so it takes the exact route; it and the dense paths return an
// all-zero spectrum on the axis instead of indexing an empty matrix.
func TestEmptyHessianGivesZeroSpectrum(t *testing.T) {
	g := &hessian.Global{H: emptyHessian(t, 0)}
	for c := range g.DAlpha {
		g.DAlpha[c] = []float64{}
	}
	for c := range g.DDipole {
		g.DDipole[c] = []float64{}
	}
	opt := DefaultOptions()
	for name, solve := range map[string]func() (*Spectrum, error){
		"lanczos raman": func() (*Spectrum, error) { return LanczosSpectrum(g, opt) },
		"lanczos ir":    func() (*Spectrum, error) { return LanczosIRSpectrum(g, opt) },
		"dense raman":   func() (*Spectrum, error) { return DenseSpectrum(g, opt, 0) },
		"dense ir":      func() (*Spectrum, error) { return DenseIRSpectrum(g, opt, 0) },
	} {
		s, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Intensity) != len(opt.axis()) {
			t.Fatalf("%s: %d points", name, len(s.Intensity))
		}
		for _, v := range s.Intensity {
			if v != 0 {
				t.Fatalf("%s: intensity %g from no modes", name, v)
			}
		}
	}
}

// TestLanczosSpectrumRecordsSolverCounts: with a scope attached the solve
// reports its steps, β-breakdowns, skipped start vectors and swept steps.
// At K = 17 the dimer's 18 coordinates stay on the Lanczos route, and minus
// three projected translations they leave 15 dimensions, so every
// recurrence that starts must break down — and a recurrence that exhausts
// its Krylov space sweeps on the way. At K = 18 the exact route runs: it
// counts one exact spectrum and moves no Lanczos counter.
func TestLanczosSpectrumRecordsSolverCounts(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.LanczosK = 17
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
	if exact := reg.Counter(obs.MetricSpectrumExact).Value(); exact != 0 {
		t.Fatalf("Lanczos route counted %d exact spectra", exact)
	}

	opt.LanczosK = 18
	reg = obs.NewRegistry()
	opt.Obs = obs.NewScope(nil, reg)
	if _, err := LanczosSpectrum(g, opt); err != nil {
		t.Fatal(err)
	}
	if exact := reg.Counter(obs.MetricSpectrumExact).Value(); exact != 1 {
		t.Fatalf("exact route counted %d exact spectra, want 1", exact)
	}
	for _, name := range []string{obs.MetricLanczosSteps, obs.MetricLanczosEarlyStops, obs.MetricLanczosSkipped, obs.MetricLanczosReorths} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Fatalf("exact route moved %s to %d", name, v)
		}
	}
}

// TestLanczosSpectrumAllocationCeiling: one spectrum allocates the axis, the
// intensities, the start-vector block, the translation vectors and either
// the plan (per column: Lanczos vectors, w, α, β, partials, T̂ work vectors,
// density, bound kernels) or the exact route's dense Hessian, eigensolver
// workspace, projections and modes — a count independent of K, n and the
// number of steps. K = 8 and 17 take the plan on the dimer's 18
// coordinates, K = 18 the exact route.
func TestLanczosSpectrumAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	g := dimerGlobal(t)
	opt := DefaultOptions()
	const ceiling = 150
	for _, k := range []int{8, 17, 18} {
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

// spectrumSHA256 hashes a spectrum's intensities, little-endian float64 bits.
func spectrumSHA256(s *Spectrum) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range s.Intensity {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenOptions is the axis the SHA-256 goldens were recorded on.
func goldenOptions() Options {
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep, opt.Sigma = 0, 4000, 2, 10
	return opt
}

// TestDenseSpectraKeepTheirBits pins the dimer's dense Raman and IR spectra
// to SHA-256 goldens: the mode analysis they share with the exact route
// must not move their arithmetic.
func TestDenseSpectraKeepTheirBits(t *testing.T) {
	g := dimerGlobal(t)
	for name, c := range map[string]struct {
		solve func(*hessian.Global, Options, float64) (*Spectrum, error)
		sha   string
	}{
		"raman": {DenseSpectrum, "d5008d66835ab5a1d76514dd26264a79cf8317f4b591449923e6318905289523"},
		"ir":    {DenseIRSpectrum, "5175d8383dbae41d7470e90d559286eab0191225ef04c10e346c37d431fbd89f"},
	} {
		s, err := c.solve(g, goldenOptions(), 50)
		if err != nil {
			t.Fatal(err)
		}
		if got := spectrumSHA256(s); got != c.sha {
			t.Errorf("%s: dense spectrum SHA-256 %s, want %s", name, got, c.sha)
		}
	}
}

// ramanStarts returns the Raman start vectors and weights the solve uses,
// translations projected out.
func ramanStarts(g *hessian.Global) ([][]float64, []float64) {
	vecs, weights := ramanColumns(g)
	return startVectors(g, vecs), weights
}

// TestExactQuadratureMatchesPlan: on a Hessian of at most K coordinates, K
// Lanczos steps exhaust the Krylov space, and the exact route gives the
// measure that K-step lanczos.Plan quadrature reaches — from the same start
// vectors, to 1e-12 of the peak, for the Raman and the IR columns, on the
// dimer (18 coordinates) and a 2×2×2 water box (72).
func TestExactQuadratureMatchesPlan(t *testing.T) {
	for _, sys := range []*structure.System{
		structure.BuildWaterDimerSystem(1),
		structure.BuildWaterBox(2, 2, 2, geom.Vec3{}),
	} {
		g := pipelineGlobal(t, sys)
		n := g.H.Dim()
		opt := DefaultOptions()
		opt.FreqMin, opt.FreqMax, opt.FreqStep, opt.Sigma = 50, 4000, 5, 20
		opt.LanczosK = n
		rs, rw := ramanStarts(g)
		for kind, c := range map[string]struct {
			starts  [][]float64
			weights []float64
		}{
			"raman": {rs, rw},
			"ir":    {startVectors(g, g.DDipole[:]), []float64{1, 1, 1}},
		} {
			exact, err := exactSpectrum(g.H, opt, c.starts, c.weights)
			if err != nil {
				t.Fatal(err)
			}
			quad, err := quadratureSpectrum(g.H, opt, c.starts, c.weights)
			if err != nil {
				t.Fatal(err)
			}
			var peak, diff float64
			for i, v := range quad.Intensity {
				peak = math.Max(peak, math.Abs(v))
				diff = math.Max(diff, math.Abs(exact.Intensity[i]-v))
			}
			t.Logf("n = %d %s: max|Δ| = %.2g of the peak", n, kind, diff/peak)
			if peak == 0 || diff > 1e-12*peak {
				t.Errorf("n = %d %s: exact route differs from the K-step quadrature by %g of the peak %g", n, kind, diff/peak, peak)
			}
		}
	}
}

// TestExactQuadratureRouteBoundary: the route turns on n ≤ K. On the
// dimer's 18 coordinates, K = 18 gives the exact route's spectrum bit for
// bit and counts one exact solve; K = 17 gives the K-step quadrature's,
// with the bits that route has always had (the SHA-256 goldens).
func TestExactQuadratureRouteBoundary(t *testing.T) {
	g := dimerGlobal(t)
	rs, rw := ramanStarts(g)
	type route func(*hessian.Sparse, Options, [][]float64, []float64) (*Spectrum, error)
	for _, c := range []struct {
		name    string
		solve   func(*hessian.Global, Options) (*Spectrum, error)
		starts  [][]float64
		weights []float64
		sha     string // of the K = 17 spectrum
	}{
		{"raman", LanczosSpectrum, rs, rw, "715940034dbdb5446b7a2e51a3a2e2b3c9929cb017611751c02e5087b0a7113b"},
		{"ir", LanczosIRSpectrum, startVectors(g, g.DDipole[:]), []float64{1, 1, 1}, "d16027788f1869d43137385f65fbc2ba24cd65c12658f0a1ae3ece9013debe2c"},
	} {
		for _, r := range []struct {
			k     int
			route route
			exact int64
		}{{17, quadratureSpectrum, 0}, {18, exactSpectrum, 1}} {
			opt := goldenOptions()
			opt.LanczosK = r.k
			want, err := r.route(g.H, opt, c.starts, c.weights)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			opt.Obs = obs.NewScope(nil, reg)
			got, err := c.solve(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got, want) {
				t.Errorf("%s K = %d: spectrum differs from its route's", c.name, r.k)
			}
			if n := reg.Counter(obs.MetricSpectrumExact).Value(); n != r.exact {
				t.Errorf("%s K = %d: %d exact solves counted, want %d", c.name, r.k, n, r.exact)
			}
			if r.exact == 0 {
				if sha := spectrumSHA256(got); sha != c.sha {
					t.Errorf("%s K = %d: SHA-256 %s, want %s", c.name, r.k, sha, c.sha)
				}
			}
		}
	}
}

// TestExactQuadratureWidthInvariance: the exact route's spectrum is the
// same bits at kernel widths 1 and 4.
func TestExactQuadratureWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	g := pipelineGlobal(t, structure.BuildWaterBox(2, 2, 2, geom.Vec3{}))
	opt := goldenOptions()
	opt.LanczosK = g.H.Dim()
	var ref [2]*Spectrum
	for _, width := range []int{1, 4} {
		par.SetBudget(width)
		for i, solve := range []func(*hessian.Global, Options) (*Spectrum, error){LanczosSpectrum, LanczosIRSpectrum} {
			s, err := solve(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ref[i] == nil {
				ref[i] = s
			} else if !bitEqual(s, ref[i]) {
				t.Errorf("spectrum %d differs between kernel widths 1 and %d", i, width)
			}
		}
	}
}

func bitEqual(a, b *Spectrum) bool {
	if len(a.Intensity) != len(b.Intensity) {
		return false
	}
	for i, v := range a.Intensity {
		if math.Float64bits(v) != math.Float64bits(b.Intensity[i]) {
			return false
		}
	}
	return true
}
