package dfpt

import (
	"errors"
	"math"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/faults"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/scf"
	"qframan/internal/structure"
)

// waterModel is a free water at its experimental geometry (3 atoms, 6 basis
// functions) — the fragment of the water-box workloads.
func waterModel(t testing.TB) (*scf.Model, *scf.Result) {
	t.Helper()
	theta := 104.52 * math.Pi / 180
	els := []constants.Element{constants.O, constants.H, constants.H}
	pos := []geom.Vec3{
		{},
		geom.V(0.9572, 0, 0),
		geom.V(0.9572*math.Cos(theta), 0.9572*math.Sin(theta), 0),
	}
	m, err := scf.NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveSCF(scf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func methaneModel(t testing.TB) (*scf.Model, *scf.Result) {
	t.Helper()
	d := 1.09 / math.Sqrt(3)
	els := []constants.Element{constants.C, constants.H, constants.H, constants.H, constants.H}
	pos := []geom.Vec3{
		{},
		geom.V(d, d, d), geom.V(d, -d, -d), geom.V(-d, d, -d), geom.V(-d, -d, d),
	}
	m, err := scf.NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveSCF(scf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// finiteFieldAlpha computes α by numerical differentiation of the dipole
// under a small field at the given smearing — the ground-truth for the γ-mode
// DFPT.
func finiteFieldAlpha(t *testing.T, m *scf.Model, smearing float64) [3][3]float64 {
	t.Helper()
	const e = 2e-4
	var alpha [3][3]float64
	for j := 0; j < 3; j++ {
		field := geom.Vec3{}
		switch j {
		case 0:
			field.X = e
		case 1:
			field.Y = e
		case 2:
			field.Z = e
		}
		opt := scf.DefaultOptions()
		opt.Tol = 1e-11
		opt.Smearing = smearing
		opt.Field = field
		rp, err := m.SolveSCF(opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Field = field.Scale(-1)
		rm, err := m.SolveSCF(opt)
		if err != nil {
			t.Fatal(err)
		}
		dp := m.Dipole(rp).Sub(m.Dipole(rm)).Scale(1 / (2 * e))
		alpha[0][j], alpha[1][j], alpha[2][j] = dp.X, dp.Y, dp.Z
	}
	return alpha
}

// TestGammaDFPTMatchesFiniteField: γ-mode α is the field derivative of the SCF
// dipole, to 5e-5 a.u. on a gapped water. On the water dimer at σ = 0.05,
// whose frontier occupations are fractional, the static field derivative also
// moves the occupations — the intraband response and the Fermi-level shift
// that the static χ of the charge loop's Newton step carries
// (TestSusceptibilityMatchesUnitPotentialBuilds ties the two) — and the
// static reference response matches it to 1e-3 a.u.; Polarizability stays
// the optical response, occupations frozen.
func TestGammaDFPTMatchesFiniteField(t *testing.T) {
	check := func(name string, got, want [3][3]float64, tol float64) {
		var worst float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				d := math.Abs(got[i][j] - want[i][j])
				worst = math.Max(worst, d)
				if d > tol {
					t.Errorf("%s α[%d][%d]: DFPT %v vs finite-field %v", name, i, j, got[i][j], want[i][j])
				}
			}
		}
		t.Logf("%s: α_xx %.4f, finite field %.4f, max |Δα| %.1e", name, got[0][0], want[0][0], worst)
	}
	m, res := waterModel(t)
	resp, err := Polarizability(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	check("water", resp.Alpha, finiteFieldAlpha(t, m, res.Sigma), 5e-5)

	m, res = systemModel(t, structure.BuildWaterDimerSystem(1), 0.05)
	static, err := refPolarizability(m, res, DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	check("water dimer σ=0.05, static", static.Alpha, finiteFieldAlpha(t, m, res.Sigma), 1e-3)
	if resp, err = Polarizability(m, res, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	t.Logf("water dimer σ=0.05: optical α_xx %.4f", resp.Alpha[0][0])
}

func TestAlphaSymmetricAndPositive(t *testing.T) {
	m, res := waterModel(t)
	resp, err := Polarizability(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if d := math.Abs(resp.Alpha[i][j] - resp.Alpha[j][i]); d > 1e-6 {
				t.Errorf("α asymmetry [%d][%d]: %g", i, j, d)
			}
		}
	}
	// Eigenvalues of α must be positive (stable ground state).
	a := linalg.NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, resp.Alpha[i][j])
		}
	}
	a.Symmetrize()
	vals, _ := linalg.EigSym(a)
	for _, v := range vals {
		if v <= 0 {
			t.Fatalf("non-positive polarizability eigenvalue %v (all: %v)", v, vals)
		}
	}
}

func TestAlphaRotationCovariance(t *testing.T) {
	m, res := waterModel(t)
	resp, err := Polarizability(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Rotate the molecule and recompute; mean polarizability is invariant.
	theta := 104.52 * math.Pi / 180
	axis := geom.V(0.3, 1.1, -0.7)
	pos := []geom.Vec3{
		{},
		geom.V(0.9572, 0, 0),
		geom.V(0.9572*math.Cos(theta), 0.9572*math.Sin(theta), 0),
	}
	for i := range pos {
		pos[i] = geom.RotateAbout(pos[i], geom.Vec3{}, axis, 1.1)
	}
	m2, err := scf.NewModel([]constants.Element{constants.O, constants.H, constants.H}, pos)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.SolveSCF(scf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := Polarizability(m2, res2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(resp.MeanPolarizability() - resp2.MeanPolarizability()); d > 1e-5 {
		t.Fatalf("mean polarizability changed under rotation by %g", d)
	}
}

func TestMethaneAlphaIsotropic(t *testing.T) {
	m, res := methaneModel(t)
	resp, err := Polarizability(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mean := resp.MeanPolarizability()
	for i := 0; i < 3; i++ {
		if math.Abs(resp.Alpha[i][i]-mean)/mean > 1e-4 {
			t.Errorf("methane α[%d][%d]=%v deviates from mean %v", i, i, resp.Alpha[i][i], mean)
		}
		for j := 0; j < 3; j++ {
			if i != j && math.Abs(resp.Alpha[i][j])/mean > 1e-4 {
				t.Errorf("methane off-diagonal α[%d][%d]=%v", i, j, resp.Alpha[i][j])
			}
		}
	}
}

func gridOptions() Options {
	opt := DefaultOptions()
	opt.Coulomb = GridCoulomb
	opt.GridSpacing = 0.55
	opt.GridMargin = 6.0
	return opt
}

// coarseGridOptions is grid mode on the benchmarks' coarse grid (0.8 bohr
// spacing, 4 bohr margin): a few milliseconds per water polarizability, for
// the tests that drive grid mode's solve rather than check its physics.
func coarseGridOptions() Options {
	opt := DefaultOptions()
	opt.Coulomb = GridCoulomb
	opt.GridSpacing = 0.8
	opt.GridMargin = 4.0
	return opt
}

func TestGridModeRuns(t *testing.T) {
	m, res := waterModel(t)
	env, err := newGridEnv(m, gridOptions())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := new(Workspace).polarizability(m, res, gridOptions(), env)
	if err != nil {
		t.Fatal(err)
	}
	// Same order of magnitude as the γ-mode reference.
	gres, err := Polarizability(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := resp.MeanPolarizability() / gres.MeanPolarizability()
	if r < 0.3 || r > 3 {
		t.Fatalf("grid-mode ᾱ=%v vs γ-mode ᾱ=%v: ratio %v out of range",
			resp.MeanPolarizability(), gres.MeanPolarizability(), r)
	}
	// Phase metrics must be populated.
	met := resp.Metrics
	if met.GEMMsN1 == 0 || met.GEMMsH1 == 0 || met.FLOPsN1 == 0 || met.FLOPsH1 == 0 {
		t.Fatalf("grid phase metrics empty: %+v", met)
	}
	// Phase 3 ran and left finite, non-trivial pair potentials.
	var v1Norm float64
	for _, v := range env.v {
		v1Norm += v * v
	}
	if v1Norm == 0 || math.IsNaN(v1Norm) || math.IsInf(v1Norm, 0) {
		t.Fatalf("response potentials have squared norm %v", v1Norm)
	}
	if met.TimeN1 == 0 || met.TimeV1 == 0 || met.TimeH1 == 0 || met.TimeP1 == 0 {
		t.Fatal("phase timings empty")
	}
}

// TestWrongShapedInitP1Ignored: InitP1 is read by neither mode — a warm
// start of any shape or content, NaN included, moves no bit of the response.
func TestWrongShapedInitP1Ignored(t *testing.T) {
	m, res := waterModel(t)
	n := m.Basis.Size()
	for _, opt := range []Options{DefaultOptions(), coarseGridOptions()} {
		cold, err := Polarizability(m, res, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range [][2]int{{n, n}, {n, n + 1}, {n + 1, n}, {1, 1}} {
			for _, fill := range []float64{1, math.NaN()} {
				bad := linalg.NewMatrix(shape[0], shape[1])
				for i := range bad.Data {
					bad.Data[i] = fill
				}
				warm := opt
				warm.InitP1 = [3]*linalg.Matrix{bad, bad, bad}
				got, err := Polarizability(m, res, warm)
				if err != nil {
					t.Fatalf("Coulomb mode %d, InitP1 %dx%d of %v: %v", opt.Coulomb, shape[0], shape[1], fill, err)
				}
				if !sameResponse(got, cold) {
					t.Errorf("Coulomb mode %d: InitP1 %dx%d of %v moved the response", opt.Coulomb, shape[0], shape[1], fill)
				}
			}
		}
	}
}

// TestInvalidDFPTOptions: a grid-mode polarizability refuses a negative grid
// spacing. A warm start and an observability scope put pointers into Options;
// the error must name the offending field, not print the struct.
func TestInvalidDFPTOptions(t *testing.T) {
	m, res := waterModel(t)
	bad := gridOptions()
	bad.GridSpacing = -1
	bad.InitP1[0] = linalg.NewMatrix(1, 1)
	bad.Obs = obs.NewScope(obs.NewTracer(), obs.NewRegistry())
	_, err := Polarizability(m, res, bad)
	if err == nil {
		t.Error("accepted negative grid spacing")
	} else if strings.Contains(err.Error(), "0x") || !strings.Contains(err.Error(), "GridSpacing -1") {
		t.Errorf("grid options error %q: want the field named and no addresses", err)
	}
}

func TestResponseP1Traceless(t *testing.T) {
	// tr(P⁽¹⁾·S) = 0: a field does not change the electron count.
	m, res := waterModel(t)
	resp, err := Polarizability(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		tr := 0.0
		n := m.Basis.Size()
		for i := 0; i < n; i++ {
			tr += linalg.Dot(resp.P1[d].Row(i), m.S.Row(i))
		}
		if math.Abs(tr) > 1e-8 {
			t.Errorf("direction %d: tr(P1·S) = %g", d, tr)
		}
	}
}

// TestGammaFailuresAreTyped: the direct γ-mode solve fails loudly, as the
// deterministic ErrDiverged the smearing ladder escalates on — for a ground
// state with no virtual orbitals, for a poisoned one (a NaN orbital
// coefficient or energy reaches K, χ and the charges) and for a singular
// charge system (a zero pivot).
func TestGammaFailuresAreTyped(t *testing.T) {
	m, res := waterModel(t)
	full, nanC, nanEps := *res, *res, *res
	full.Occ = make([]float64, len(res.Occ))
	for i := range full.Occ {
		full.Occ[i] = 2
	}
	nanC.C = res.C.Clone()
	nanC.C.Set(0, 0, math.NaN())
	nanEps.Eps = append([]float64(nil), res.Eps...)
	nanEps.Eps[0] = math.NaN()
	check := func(name string, err error, text string) {
		t.Helper()
		if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), text) {
			t.Errorf("%s: got %v, want ErrDiverged saying %q", name, err, text)
		} else if faults.Classify(err) != faults.Deterministic {
			t.Errorf("%s: %v classified as retryable", name, err)
		}
	}
	for _, tc := range []struct {
		name   string
		ground *scf.Result
		text   string
	}{
		{"no virtual orbitals", &full, "no virtual orbitals (basis 6, occupied 6)"},
		{"NaN orbital", &nanC, "non-finite response charge"},
		{"NaN energy", &nanEps, "non-finite response charge"},
	} {
		_, err := Polarizability(m, tc.ground, DefaultOptions())
		check(tc.name, err, tc.text)
	}
	env := newCycleEnv(m, res, nil)
	env.Build(false)
	env.Sys.Zero()
	n := m.Basis.Size()
	check("zero pivot", env.solveGamma(1, obs.Scope{}, new(PhaseMetrics), linalg.NewMatrix(n, n)), "zero pivot")
}
