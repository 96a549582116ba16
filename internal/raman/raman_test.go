package raman

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
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
func pipelineGlobal(t testing.TB, sys *structure.System) *hessian.Global {
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

// TestExactModesWaterDimer: the exact route's mode analysis of the dimer
// has its 18 modes, an O–H stretch band and no negative activity, for the
// Raman and the IR columns.
func TestExactModesWaterDimer(t *testing.T) {
	g := dimerGlobal(t)
	for kind, ir := range map[string]bool{"raman": false, "ir": true} {
		starts, weights := solveStarts(g, ir)
		m, err := normalModes(g.H, starts, weights)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.wavenumbers) != 18 {
			t.Fatalf("%s: modes = %d, want 18", kind, len(m.wavenumbers))
		}
		// O–H stretch band present near 3600–3800.
		found := false
		for _, w := range m.wavenumbers {
			if w > 3400 && w < 3900 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no O–H stretch modes found", kind)
		}
		for p, a := range m.activity {
			if a < 0 {
				t.Fatalf("%s: negative activity %g at mode %d", kind, a, p)
			}
		}
	}
}

// quadrature is LanczosSpectrum (ir: LanczosIRSpectrum) with the route
// forced to the K-step quadrature: the dimer's 18 coordinates are cheaper to
// diagonalize than any K steps, so LanczosSpectrum itself takes the exact
// route there.
func quadrature(g *hessian.Global, opt Options, ir bool) (*Spectrum, error) {
	starts, weights := solveStarts(g, ir)
	return quadratureSpectrum(g.H, opt, starts, weights)
}

// exact is LanczosSpectrum (ir: LanczosIRSpectrum) on the exact route,
// whatever K: the reference the quadrature is held against.
func exact(g *hessian.Global, opt Options, ir bool) (*Spectrum, error) {
	starts, weights := solveStarts(g, ir)
	return exactSpectrum(g.H, opt, starts, weights)
}

// solveStarts returns the start vectors and weights LanczosSpectrum (ir:
// LanczosIRSpectrum) solves from, translations projected out.
func solveStarts(g *hessian.Global, ir bool) ([][]float64, []float64) {
	if ir {
		return startVectors(g, g.DDipole[:]), []float64{1, 1, 1}
	}
	vecs, weights := ramanColumns(g)
	return startVectors(g, vecs), weights
}

// TestLanczosSpectrumMatchesDense: on both routes — the K = 17 quadrature
// runs the recurrences through the dimer's whole 15-dimensional Krylov
// space, LanczosSpectrum takes the exact route — the spectrum matches the
// one of the dense eigendecomposition (the exact route).
func TestLanczosSpectrumMatchesDense(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep = 200, 4000, 5
	opt.Sigma = 20

	ref, err := exact(g, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	quadOpt := opt
	quadOpt.LanczosK = 17
	for name, solve := range map[string]func() (*Spectrum, error){
		"quadrature":      func() (*Spectrum, error) { return quadrature(g, quadOpt, false) },
		"LanczosSpectrum": func() (*Spectrum, error) { return LanczosSpectrum(g, opt) },
	} {
		lan, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Freq) != len(lan.Freq) {
			t.Fatal("axis mismatch")
		}
		if sim := CosineSimilarity(ref, lan); sim < 0.995 {
			t.Fatalf("%s: exact vs Lanczos cosine similarity %v", name, sim)
		}
	}
}

func TestLanczosSpectrumSmallK(t *testing.T) {
	// Even with k far below the dimension the GAGQ spectrum should track
	// the exact result closely.
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep = 200, 4000, 5
	opt.Sigma = 40
	opt.LanczosK = 8

	ref, err := exact(g, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := quadrature(g, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if sim := CosineSimilarity(ref, lan); sim < 0.9 {
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

// emptyHessian is the n×n CSR matrix with no stored entry.
func emptyHessian(n int) *hessian.Sparse {
	return &hessian.Sparse{N: n, RowPtr: make([]int32, n+1)}
}

func TestLanczosSpectrumRequiresAlpha(t *testing.T) {
	g := &hessian.Global{H: emptyHessian(3), Masses: []float64{1}}
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

	ref, err := exact(g, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	quadOpt := opt
	quadOpt.LanczosK = 17
	for name, solve := range map[string]func() (*Spectrum, error){
		"quadrature":        func() (*Spectrum, error) { return quadrature(g, quadOpt, true) },
		"LanczosIRSpectrum": func() (*Spectrum, error) { return LanczosIRSpectrum(g, opt) }, // the exact route
	} {
		lan, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		if sim := CosineSimilarity(ref, lan); sim < 0.99 {
			t.Fatalf("%s: exact vs Lanczos IR cosine similarity %v", name, sim)
		}
	}
	// Water's bend (~1650) is strongly IR active: require real intensity
	// there relative to the maximum.
	ref.Normalize()
	var bend float64
	for i, f := range ref.Freq {
		if f > 1500 && f < 1800 && ref.Intensity[i] > bend {
			bend = ref.Intensity[i]
		}
	}
	if bend < 0.05 {
		t.Fatalf("bend region IR intensity %v — water bend should be IR active", bend)
	}
}

func TestIRRequiresDipoleDerivatives(t *testing.T) {
	g := &hessian.Global{H: emptyHessian(3), Masses: []float64{1}}
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
	opt.LanczosK = 12
	for name, spec := range map[string]func() (*Spectrum, error){
		"raman-lanczos": func() (*Spectrum, error) { return quadrature(g, opt, false) },
		"raman-exact":   func() (*Spectrum, error) { return LanczosSpectrum(g, exact) },
		"ir-lanczos":    func() (*Spectrum, error) { return quadrature(g, opt, true) },
		"ir-exact":      func() (*Spectrum, error) { return LanczosIRSpectrum(g, exact) },
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
// both routes. The quadrature's eigen-solve cannot converge on the Lanczos
// route (K = 12), nor the dense eigendecomposition on the exact route (which
// LanczosSpectrum takes on the dimer); each spectrum comes back as
// lanczos.ErrQuadrature — an error the runtime must not retry — instead of
// a panic that would take a daemon down.
func TestNonFiniteHessianIsTypedAndPermanent(t *testing.T) {
	g := dimerGlobal(t)
	g.H.Val[len(g.H.Val)/2] = math.NaN()
	opt := DefaultOptions()
	quadOpt := opt
	quadOpt.LanczosK = 12
	for name, solve := range map[string]func() (*Spectrum, error){
		"lanczos raman": func() (*Spectrum, error) { return quadrature(g, quadOpt, false) },
		"lanczos ir":    func() (*Spectrum, error) { return quadrature(g, quadOpt, true) },
		"exact raman":   func() (*Spectrum, error) { return LanczosSpectrum(g, opt) },
		"exact ir":      func() (*Spectrum, error) { return LanczosIRSpectrum(g, opt) },
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
// any K, so it takes the exact route, which returns an all-zero spectrum on
// the axis instead of indexing an empty matrix.
func TestEmptyHessianGivesZeroSpectrum(t *testing.T) {
	g := &hessian.Global{H: emptyHessian(0)}
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
// The K = 17 quadrature runs on the dimer's 18 coordinates, and minus three
// projected translations they leave 15 dimensions, so every recurrence that
// starts must break down — and a recurrence that exhausts its Krylov space
// sweeps on the way. LanczosSpectrum takes the exact route there: it counts
// one exact spectrum and moves no Lanczos counter.
func TestLanczosSpectrumRecordsSolverCounts(t *testing.T) {
	g := dimerGlobal(t)
	opt := DefaultOptions()
	opt.LanczosK = 17
	reg := obs.NewRegistry()
	opt.Obs = obs.NewScope(nil, reg)
	if _, err := quadrature(g, opt, false); err != nil {
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
// number of steps. The K = 8 and 17 quadratures run the plan on the dimer's
// 18 coordinates, LanczosSpectrum at K = 18 the exact route.
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
		solve := LanczosSpectrum
		if k < g.H.Dim() {
			solve = func(g *hessian.Global, opt Options) (*Spectrum, error) { return quadrature(g, opt, false) }
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := solve(g, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("K = %d: %v allocations per spectrum", k, allocs)
		if allocs > ceiling {
			t.Errorf("K = %d: the spectrum allocates %v objects, ceiling %d", k, allocs, ceiling)
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

// TestExactSpectraKeepTheirBits pins the dimer's Raman and IR spectra on
// the exact route (n = 18 ≤ K = 200) to SHA-256 goldens: the mode analysis
// must not move its arithmetic.
func TestExactSpectraKeepTheirBits(t *testing.T) {
	g := dimerGlobal(t)
	for name, c := range map[string]struct {
		solve func(*hessian.Global, Options) (*Spectrum, error)
		sha   string
	}{
		// re-recorded: each Hessian entry is now summed in decomposition order, not in sort.Slice's order
		"raman": {LanczosSpectrum, "5eeb9a65d2e2188b30a870bb9a73e196c004beb6666997dda2b607656a38ca09"},
		// re-recorded: each Hessian entry is now summed in decomposition order, not in sort.Slice's order
		"ir": {LanczosIRSpectrum, "c356f9d5d35477a9717d2d3b090ecaafcaf6d9fcec8212c710dcd22df9b9308e"},
	} {
		s, err := c.solve(g, goldenOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := spectrumSHA256(s); got != c.sha {
			t.Errorf("%s: exact spectrum SHA-256 %s, want %s", name, got, c.sha)
		}
	}
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
		for kind, ir := range map[string]bool{"raman": false, "ir": true} {
			starts, weights := solveStarts(g, ir)
			exact, err := exactSpectrum(g.H, opt, starts, weights)
			if err != nil {
				t.Fatal(err)
			}
			quad, err := quadratureSpectrum(g.H, opt, starts, weights)
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

// TestExactQuadratureRouteBoundary: LanczosSpectrum and LanczosIRSpectrum
// give the spectrum of the route exactCheaper picks, bit for bit, and count
// it — the exact route on the dimer at K = 18 (n ≤ K) and at K = 17 (cheaper
// than 17 steps), the quadrature on the smallest water box it sends there at
// wb-resume's settings. The dimer's K = 17 quadrature keeps the bits that
// route has always had (the SHA-256 goldens).
func TestExactQuadratureRouteBoundary(t *testing.T) {
	type route func(*hessian.Sparse, Options, [][]float64, []float64) (*Spectrum, error)
	dimer, box := dimerGlobal(t), waterBoxGlobal(t, 3, 4, 4)
	for _, c := range []struct {
		name  string
		ir    bool
		sha   string // of the dimer's K = 17 quadrature
		solve func(*hessian.Global, Options) (*Spectrum, error)
	}{
		// re-recorded: each Hessian entry is now summed in decomposition order, not in sort.Slice's order
		{"raman", false, "b34104980c543f7659e96910e19e14931be6c7c180e9448aaae285ef51e47046", LanczosSpectrum},
		// re-recorded: each Hessian entry is now summed in decomposition order, not in sort.Slice's order
		{"ir", true, "be7168740cb39c78926f5023a50079282ce3370094b96b569f22804d81fdb2b3", LanczosIRSpectrum},
	} {
		opt := goldenOptions()
		opt.LanczosK = 17
		quad, err := quadrature(dimer, opt, c.ir)
		if err != nil {
			t.Fatal(err)
		}
		if sha := spectrumSHA256(quad); sha != c.sha {
			t.Errorf("%s: K = 17 quadrature SHA-256 %s, want %s", c.name, sha, c.sha)
		}
		for _, r := range []struct {
			g     *hessian.Global
			opt   Options
			route route
			exact int64
		}{
			{dimer, withK(goldenOptions(), 17), exactSpectrum, 1},
			{dimer, withK(goldenOptions(), 18), exactSpectrum, 1},
			{box, resumeOptions(), quadratureSpectrum, 0},
		} {
			starts, weights := solveStarts(r.g, c.ir)
			what := fmt.Sprintf("%s n = %d K = %d", c.name, r.g.H.Dim(), r.opt.LanczosK)
			want, err := r.route(r.g.H, r.opt, starts, weights)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			opt := r.opt
			opt.Obs = obs.NewScope(nil, reg)
			got, err := c.solve(r.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got, want) {
				t.Errorf("%s: spectrum differs from its route's", what)
			}
			if n := reg.Counter(obs.MetricSpectrumExact).Value(); n != r.exact {
				t.Errorf("%s: %d exact solves counted, want %d", what, n, r.exact)
			}
		}
	}
}

func withK(opt Options, k int) Options {
	opt.LanczosK = k
	return opt
}

// resumeOptions are the spectral settings of the wb-resume workload.
func resumeOptions() Options {
	opt := DefaultOptions()
	opt.FreqMin, opt.FreqMax, opt.FreqStep, opt.Sigma, opt.LanczosK = 50, 4000, 5, 20, 120
	return opt
}

var waterBoxes struct {
	sync.Mutex
	g map[[3]int]*hessian.Global
}

// waterBoxGlobal returns the assembled global quantities of the nx×ny×nz
// water box with every atom displaced by a seeded 0.001 Å jitter (as the
// bench workloads' boxes are: a perfect lattice's identical copies give the
// recurrences a degenerate measure), computed once per test binary.
func waterBoxGlobal(t testing.TB, nx, ny, nz int) *hessian.Global {
	t.Helper()
	waterBoxes.Lock()
	defer waterBoxes.Unlock()
	key := [3]int{nx, ny, nz}
	if g := waterBoxes.g[key]; g != nil {
		return g
	}
	base := structure.BuildWaterBox(nx, ny, nz, geom.Vec3{})
	frames := structure.PerturbedTrajectory(base, structure.PerturbOptions{Frames: 2, MoveFrac: 1, Jitter: 0.001, Seed: 1})
	sys, err := structure.ApplyFrame(base, frames[1])
	if err != nil {
		t.Fatal(err)
	}
	g := pipelineGlobal(t, sys)
	if waterBoxes.g == nil {
		waterBoxes.g = make(map[[3]int]*hessian.Global)
	}
	waterBoxes.g[key] = g
	return g
}

// TestExactCheaperRule: the route is a function of sizes alone. n ≤ K is
// always exact; along the water-box ladder (the n and stored entries of the
// jittered 3×3×3, 3×3×4, 3×4×4, 4×4×4, 4×4×5 and 6×6×6 boxes) it turns
// between n = 324 and 432 at wb-resume's settings and between 576 and 720
// at the defaults, as the calibration measured, so n = 720 and 1 944 take
// the quadrature; three IR columns turn it earlier than seven Raman ones
// (at wb-resume's settings between n = 243 and 324); and once it turns to
// the quadrature it stays there as n grows.
func TestExactCheaperRule(t *testing.T) {
	resume, defaults := resumeOptions(), DefaultOptions()
	for _, opt := range []Options{resume, defaults, withK(resume, 8)} {
		for _, n := range []int{0, 1, 18, opt.LanczosK} {
			for _, cols := range []int{3, 7} {
				for _, stored := range []int{0, n * n, 1 << 40} {
					if !exactCheaper(n, stored, cols, &opt) {
						t.Errorf("K = %d: n = %d ≤ K with %d stored entries and %d columns takes the quadrature", opt.LanczosK, n, stored, cols)
					}
				}
			}
		}
	}
	ladder := []struct{ n, stored int }{{243, 11259}, {324, 15390}, {432, 21222}, {576, 29160}, {720, 37098}, {1944, 108864}}
	for _, c := range []struct {
		name  string
		opt   Options
		exact int // boxes of the ladder the Raman route solves exactly
	}{{"wb-resume", resume, 2}, {"defaults", defaults, 4}} {
		for i, b := range ladder {
			if got, want := exactCheaper(b.n, b.stored, 7, &c.opt), i < c.exact; got != want {
				t.Errorf("%s: n = %d routes exact = %v, want %v", c.name, b.n, got, want)
			}
		}
	}
	if !exactCheaper(324, 15390, 7, &resume) || exactCheaper(324, 15390, 3, &resume) || !exactCheaper(243, 11259, 3, &resume) {
		t.Error("wb-resume's settings: want n = 324 exact for 7 columns and on the quadrature for 3, n = 243 exact for 3")
	}
	for _, opt := range []Options{resume, defaults, withK(defaults, 20), withK(resume, 1000)} {
		for _, cols := range []int{3, 7} {
			for _, perRow := range []int{0, 46, 300} {
				turned := 0
				for n := opt.LanczosK + 1; n <= 200000; n += 1 + n/64 {
					stored := perRow * n
					if perRow == 0 {
						stored = 11259
					}
					switch exact := exactCheaper(n, stored, cols, &opt); {
					case !exact && turned == 0:
						turned = n
					case exact && turned != 0:
						t.Fatalf("K = %d, %d columns, %d entries per row: the quadrature at n = %d, the exact route again at n = %d", opt.LanczosK, cols, perRow, turned, n)
					}
				}
				if turned == 0 {
					t.Errorf("K = %d, %d columns, %d entries per row: the exact route up to n = 200 000", opt.LanczosK, cols, perRow)
				}
			}
		}
	}
}

// TestExactAndQuadratureAcrossTheRoute: at wb-resume's settings the exact
// route and the K = 120 quadrature agree, from the same start vectors, to
// TestWaterBoxLanczosMatchesDense's cosine bound on both sides of the
// route's turn — the largest box of the ladder it solves exactly (3×3×4,
// n = 324) and the smallest it sends to the quadrature (3×4×4, n = 432).
func TestExactAndQuadratureAcrossTheRoute(t *testing.T) {
	opt := resumeOptions()
	for _, c := range []struct {
		dims  [3]int
		exact bool
	}{{[3]int{3, 3, 4}, true}, {[3]int{3, 4, 4}, false}} {
		g := waterBoxGlobal(t, c.dims[0], c.dims[1], c.dims[2])
		n := g.H.Dim()
		if got := exactCheaper(n, len(g.H.Val), 7, &opt); got != c.exact {
			t.Fatalf("n = %d: routes exact = %v, want %v", n, got, c.exact)
		}
		starts, weights := solveStarts(g, false)
		exact, err := exactSpectrum(g.H, opt, starts, weights)
		if err != nil {
			t.Fatal(err)
		}
		quad, err := quadratureSpectrum(g.H, opt, starts, weights)
		if err != nil {
			t.Fatal(err)
		}
		sim := CosineSimilarity(exact, quad)
		t.Logf("n = %d: exact vs K = %d quadrature cosine %.10f", n, opt.LanczosK, sim)
		if sim < 0.99999 {
			t.Errorf("n = %d: exact vs quadrature cosine %.10f, want ≥ 0.99999", n, sim)
		}
	}
}

// TestIRQuadratureAtTheRouteTurn holds the IR quadrature on both sides of
// where the route first gives it to the recurrence: at wb-resume's settings
// the three IR columns of the jittered 3×3×3 box (n = 243) take the exact
// route, and those of the next box of the ladder (3×3×4, n = 324) the
// K = 120 quadrature. From the same start vectors, the IR quadrature's
// cosine to the exact IR spectrum measured 0.9999722 at n = 243 (the Raman
// quadrature's 0.9999994) and 0.9998685 at n = 324, the first box the
// route actually sends to it (EXPERIMENTS.md, "The IR quadrature at the
// route's turn"); each bound sits just under its measurement, so a change
// that makes the IR quadrature worse is seen. The error grows with n
// (0.9993 at n = 432).
func TestIRQuadratureAtTheRouteTurn(t *testing.T) {
	opt := resumeOptions()
	for _, c := range []struct {
		dims  [3]int
		n     int
		exact bool // the IR route at these settings
		bound float64
	}{
		{[3]int{3, 3, 3}, 243, true, 0.99997},
		{[3]int{3, 3, 4}, 324, false, 0.99986},
	} {
		g := waterBoxGlobal(t, c.dims[0], c.dims[1], c.dims[2])
		n := g.H.Dim()
		if n != c.n || exactCheaper(n, len(g.H.Val), 3, &opt) != c.exact {
			t.Fatalf("n = %d: want n = %d with the IR route exact = %v", n, c.n, c.exact)
		}
		starts, weights := solveStarts(g, true)
		exact, err := exactSpectrum(g.H, opt, starts, weights)
		if err != nil {
			t.Fatal(err)
		}
		quad, err := quadratureSpectrum(g.H, opt, starts, weights)
		if err != nil {
			t.Fatal(err)
		}
		sim := CosineSimilarity(exact, quad)
		t.Logf("IR, n = %d: exact vs K = %d quadrature cosine %.10f", n, opt.LanczosK, sim)
		if sim < c.bound {
			t.Errorf("IR, n = %d: exact vs quadrature cosine %.10f, want ≥ %g", n, sim, c.bound)
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
