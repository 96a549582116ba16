package hessian

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/dfpt"
	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/scf"
	"qframan/internal/structure"
)

// waterFragment builds a standalone water fragment at the experimental
// geometry.
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

func waterMassesAMU() []float64 {
	return []float64{constants.O.MassAMU(), constants.H.MassAMU(), constants.H.MassAMU()}
}

// eigenFrequencies densifies the sparse mass-weighted Hessian and returns
// wavenumbers in cm⁻¹, ascending.
func eigenFrequencies(s *Sparse) []float64 {
	n := s.Dim()
	dense := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			dense.Set(i, int(s.Col[k]), s.Val[k])
		}
	}
	dense.Symmetrize()
	vals, _ := linalg.EigSym(dense)
	out := make([]float64, n)
	for i, v := range vals {
		out[i] = constants.WavenumberFromEigenvalue(v)
	}
	return out
}

// computeAtWidths runs the fragment engine at kernel budgets 1 (inline) and 3
// and requires the two results to agree to the last bit: every test that
// computes a fragment is also a test that the kernel width is not physics.
func computeAtWidths(t *testing.T, f *fragment.Fragment, opt JobOptions) *FragmentData {
	t.Helper()
	defer par.SetBudget(par.Budget())
	par.SetBudget(1)
	inline, ref, err := ComputeFragment(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.DeltaQ) != f.NumAtoms() {
		t.Fatalf("reference SCF carries %d charges for %d atoms", len(ref.DeltaQ), f.NumAtoms())
	}
	par.SetBudget(3)
	fanned, _, err := ComputeFragment(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !inline.BitEqual(fanned) {
		t.Fatalf("fragment %d: width 3 differs bitwise from width 1", f.ID)
	}
	return inline
}

func TestWaterFrequencies(t *testing.T) {
	f := waterFragment()
	data := computeAtWidths(t, f, DefaultJobOptions())
	dec := &fragment.Decomposition{Fragments: []fragment.Fragment{*f}}
	g, err := AssembleDegraded(dec, waterMassesAMU(), []*FragmentData{data}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	freqs := eigenFrequencies(g.H)
	// Six rigid-body modes near zero (reference is calibrated stationary).
	for i := 0; i < 6; i++ {
		if math.Abs(freqs[i]) > 30 {
			t.Fatalf("rigid mode %d at %.1f cm⁻¹", i, freqs[i])
		}
	}
	// Three vibrations near the model's calibration targets: bend ~1650,
	// stretches ~3600/3700 (experimental water: 1595/3657/3756).
	checks := []struct{ got, want, tol float64 }{
		{freqs[6], 1650, 120},
		{freqs[7], 3600, 150},
		{freqs[8], 3710, 150},
	}
	for i, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("water vibration %d at %.1f cm⁻¹, want %.0f±%.0f", i, c.got, c.want, c.tol)
		}
	}
	// Polarizability derivatives present and nonzero: water is Raman active.
	for c := 0; c < 3; c++ {
		if linalg.Norm2(g.DAlpha[c]) == 0 {
			t.Fatalf("diagonal polarizability derivative %d vanished", c)
		}
	}
}

func TestHessianTranslationSumRule(t *testing.T) {
	// Acoustic sum rule: Σ_J H[3I+d][3J+d'] = 0 (unweighted Cartesian
	// Hessian rows sum to zero by translation invariance).
	f := waterFragment()
	data := computeAtWidths(t, f, DefaultJobOptions())
	n := f.NumAtoms()
	for rd := 0; rd < 3*n; rd++ {
		for d := 0; d < 3; d++ {
			var sum float64
			for b := 0; b < n; b++ {
				sum += data.Hess.At(rd, 3*b+d)
			}
			if math.Abs(sum) > 1e-5 {
				t.Fatalf("row %d axis %d: translation sum %g", rd, d, sum)
			}
		}
	}
}

func TestQFExactForSingleDimer(t *testing.T) {
	// For exactly two waters within λ, the Eq. 1 combination telescopes to
	// the direct dimer calculation: w1 + w2 + (dimer − w1 − w2) = dimer.
	sys := structure.BuildWaterDimerSystem(1)
	dec, err := fragment.Decompose(sys, fragment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats.NumWWPairs != 1 {
		t.Fatalf("expected 1 ww pair, got %d", dec.Stats.NumWWPairs)
	}
	opt := DefaultJobOptions()
	datas := make([]*FragmentData, len(dec.Fragments))
	for i := range dec.Fragments {
		datas[i] = computeAtWidths(t, &dec.Fragments[i], opt)
	}
	g, err := AssembleDegraded(dec, sys.Masses(), datas, true, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Direct: the whole 6-atom system as one fragment.
	whole := &fragment.Fragment{
		Els:     make([]constants.Element, sys.NumAtoms()),
		Pos:     sys.Positions(),
		NumReal: sys.NumAtoms(),
		Coeff:   1,
	}
	for i, a := range sys.Atoms {
		whole.Els[i] = a.El
		whole.GlobalIdx = append(whole.GlobalIdx, i)
	}
	wholeData := computeAtWidths(t, whole, opt)
	decW := &fragment.Decomposition{Fragments: []fragment.Fragment{*whole}}
	gW, err := AssembleDegraded(decW, sys.Masses(), []*FragmentData{wholeData}, true, nil)
	if err != nil {
		t.Fatal(err)
	}

	n := g.H.Dim()
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(g.H.At(i, j) - gW.H.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-8 {
		t.Fatalf("QF dimer Hessian differs from direct by %g", worst)
	}
	for c := 0; c < 6; c++ {
		for i := 0; i < n; i++ {
			if d := math.Abs(g.DAlpha[c][i] - gW.DAlpha[c][i]); d > 1e-6 {
				t.Fatalf("∂α component %d entry %d differs by %g", c, i, d)
			}
		}
	}
}

func TestBuildFragmentDataValidation(t *testing.T) {
	if _, err := BuildFragmentData(2, nil, DefaultStep, false); err == nil {
		t.Fatal("accepted empty results")
	}
	// Missing minus displacement.
	rs := make([]*DisplacementResult, 0, 12)
	for a := 0; a < 2; a++ {
		for d := 0; d < 3; d++ {
			rs = append(rs,
				&DisplacementResult{Atom: a, Axis: d, Sign: 1, Forces: make([]geom.Vec3, 2)},
				&DisplacementResult{Atom: a, Axis: d, Sign: 1, Forces: make([]geom.Vec3, 2)})
		}
	}
	if _, err := BuildFragmentData(2, rs, DefaultStep, false); err == nil {
		t.Fatal("accepted duplicate plus displacements")
	}
}

func TestRunDisplacementValidation(t *testing.T) {
	f := waterFragment()
	m, err := scf.NewModel(f.Els, f.Pos)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ atom, axis, sign int }{
		{0, 0, 2}, {-1, 0, 1}, {m.NumAtoms(), 0, 1}, {0, -1, 1}, {0, 3, -1},
	} {
		if _, err := RunDisplacement(m, c.atom, c.axis, c.sign, DefaultJobOptions()); err == nil {
			t.Errorf("accepted atom %d axis %d sign %d", c.atom, c.axis, c.sign)
		}
	}
}

func mustBuild(t testing.TB, b *Builder) *Sparse {
	t.Helper()
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSparseBuilderAndMulVec(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2) // duplicate: must merge to 3
	b.Add(0, 3, -1)
	b.Add(3, 0, -1)
	b.Add(2, 1, 5)
	b.Add(1, 2, 5)
	b.Add(1, 1, 0) // explicit zero must be dropped
	s := mustBuild(t, b)
	if s.At(0, 0) != 3 {
		t.Fatalf("merged entry = %v", s.At(0, 0))
	}
	if s.At(1, 1) != 0 {
		t.Fatal("zero entry retained")
	}
	if len(s.Val) != 5 {
		t.Fatalf("nnz = %d, want 5", len(s.Val))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < i; j++ {
			if s.At(i, j) != s.At(j, i) {
				t.Fatalf("S[%d,%d] = %v, S[%d,%d] = %v", i, j, s.At(i, j), j, i, s.At(j, i))
			}
		}
	}
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	s.MulVec(x, y)
	want := []float64{3*1 - 1*4, 5 * 3, 5 * 2, -1 * 1}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestSparseScaleRowsCols(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 6)
	b.Add(1, 0, 6)
	b.ScaleRowsCols([]float64{2, 3})
	s := mustBuild(t, b)
	if s.At(0, 1) != 1 {
		t.Fatalf("scaled entry = %v, want 1", s.At(0, 1))
	}
}

func TestAssembleValidation(t *testing.T) {
	f := waterFragment()
	dec := &fragment.Decomposition{Fragments: []fragment.Fragment{*f}}
	if _, err := AssembleDegraded(dec, waterMassesAMU(), nil, false, nil); err == nil {
		t.Fatal("accepted missing fragment data")
	}
	if _, err := AssembleDegraded(dec, waterMassesAMU(), []*FragmentData{nil}, false, nil); err == nil {
		t.Fatal("accepted nil fragment data")
	}
}

// coarseGridJobOptions are the default job options with grid-mode DFPT on the
// benchmarks' coarse grid (0.8 bohr spacing, 4 bohr margin): a few
// milliseconds per response.
func coarseGridJobOptions() JobOptions {
	opt := DefaultJobOptions()
	opt.DFPT.Coulomb = dfpt.GridCoulomb
	opt.DFPT.GridSpacing, opt.DFPT.GridMargin = 0.8, 4.0
	return opt
}

// TestNonConvergenceIsTypedThroughWrapping: every way the SCF gives up and
// every way a direct DFPT response fails reaches the caller of the
// displacement loop as a sentinel errors.Is finds through this package's
// wrapping, and classifies Deterministic — the runtime escalates the smearing
// rung or drops the fragment, it never retries. Non-finite dipole integrals
// poison the right-hand side of both responses: grid mode's displaced
// polarizability (the job run on the poisoned model as its displaced one) and
// γ mode's reference field response. (The responses' own
// failures are dfpt.TestGammaFailuresAreTyped and dfpt.TestGridFailuresAreTyped.)
func TestNonConvergenceIsTypedThroughWrapping(t *testing.T) {
	f := waterFragment()
	m, err := scf.NewModel(f.Els, f.Pos)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := *m
	poisoned.Dip[0] = linalg.NewMatrix(m.Basis.Size(), m.Basis.Size())
	for i := range poisoned.Dip[0].Data {
		poisoned.Dip[0].Data[i] = math.NaN()
	}
	displaced := func(m *scf.Model, o JobOptions) error { _, err := runJob(m, 0, 0, 1, o); return err }
	reference := func(m *scf.Model, o JobOptions) error { _, _, err := SolveReference(m, o); return err }
	starved := coarseGridJobOptions()
	starved.SCF.MaxIter = 2
	for _, tc := range []struct {
		name string
		m    *scf.Model
		opt  JobOptions
		run  func(*scf.Model, JobOptions) error
		want error
		text string
	}{
		{"scf iterations, displaced", m, starved, displaced, scf.ErrNotConverged, "scf: not converged after 2 iterations"},
		{"scf iterations, reference", m, starved, reference, scf.ErrNotConverged, "scf: not converged after 2 iterations"},
		{"grid dfpt NaN, displaced", &poisoned, coarseGridJobOptions(), displaced, dfpt.ErrDiverged, "non-finite P1"},
		{"γ dfpt NaN, reference", &poisoned, DefaultJobOptions(), reference, dfpt.ErrDiverged, "non-finite response charge"},
	} {
		err := tc.run(tc.m, tc.opt)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want it to wrap %v", tc.name, err, tc.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), "hessian: ") || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: message %q lost the wrapping or the engine's text %q", tc.name, err, tc.text)
		}
		if faults.Classify(err) != faults.Deterministic {
			t.Errorf("%s: %v classified as retryable", tc.name, err)
		}
	}
}

// TestMulVecsRowsMatchesMulVecBitwise: the multi-vector product gives every
// column the bits of a straight-line four-chain row product (MulVec's
// association), for odd and even column counts, split row ranges, and rows
// of every length modulo 4 — and MulVec gives them too.
func TestMulVecsRowsMatchesMulVecBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 57
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for k := 0; k < i%9; k++ { // row lengths 0…8
			b.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	s := mustBuild(t, b)
	ref := func(x []float64) []float64 {
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			k, end := s.RowPtr[i], s.RowPtr[i+1]
			var s0, s1, s2, s3, st float64
			for ; k+3 < end; k += 4 {
				s0 += s.Val[k] * x[s.Col[k]]
				s1 += s.Val[k+1] * x[s.Col[k+1]]
				s2 += s.Val[k+2] * x[s.Col[k+2]]
				s3 += s.Val[k+3] * x[s.Col[k+3]]
			}
			for ; k < end; k++ {
				st += s.Val[k] * x[s.Col[k]]
			}
			y[i] = ((s0 + s1) + (s2 + s3)) + st
		}
		return y
	}
	for cols := 1; cols <= 9; cols++ {
		xs, ys := make([][]float64, cols), make([][]float64, cols)
		for c := range xs {
			xs[c], ys[c] = make([]float64, n), make([]float64, n)
			for i := range xs[c] {
				xs[c][i] = rng.NormFloat64()
			}
		}
		s.MulVecsRows(xs, ys, 0, 20)
		s.MulVecsRows(xs, ys, 20, 21)
		s.MulVecsRows(xs, ys, 21, n)
		one := make([]float64, n)
		for c := range xs {
			want := ref(xs[c])
			s.MulVec(xs[c], one)
			for i := range want {
				if math.Float64bits(ys[c][i]) != math.Float64bits(want[i]) || math.Float64bits(one[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d columns: column %d row %d: MulVecsRows %v, MulVec %v, reference %v", cols, c, i, ys[c][i], one[i], want[i])
				}
			}
		}
	}
}

// TestBuildRejectsIndexOverflow: the int32 row pointers hold 2³¹−1 entries;
// one more is a typed error, not a silent wrap.
func TestBuildRejectsIndexOverflow(t *testing.T) {
	if err := checkNNZ(math.MaxInt32); err != nil {
		t.Fatalf("2³¹−1 non-zeros rejected: %v", err)
	}
	err := checkNNZ(math.MaxInt32 + 1)
	if !errors.Is(err, ErrIndexOverflow) {
		t.Fatalf("2³¹ non-zeros: %v", err)
	}
}

// TestSmearingEscalationsAreCounted: the fragment engine counts every smearing
// rung it takes above the first. A water whose charge loop may take only two
// iterations fails on all five rungs — four escalations — and reports the
// first rung's failure; a healthy water takes none.
func TestSmearingEscalationsAreCounted(t *testing.T) {
	reg := obs.NewRegistry()
	escalations := reg.Counter(obs.MetricSCFSmearingEscalations)
	opt := DefaultJobOptions()
	opt.Obs = obs.NewScope(nil, reg)
	if _, _, err := ComputeFragment(waterFragment(), opt); err != nil {
		t.Fatal(err)
	}
	if got := escalations.Value(); got != 0 {
		t.Fatalf("%s = %d after a first-rung fragment", obs.MetricSCFSmearingEscalations, got)
	}
	opt.SCF.MaxIter = 2
	_, _, err := ComputeFragment(waterFragment(), opt)
	if !errors.Is(err, scf.ErrNotConverged) || !strings.Contains(err.Error(), "failed at every smearing rung") {
		t.Fatalf("got %v, want the ladder to fail with scf.ErrNotConverged", err)
	}
	if got, want := escalations.Value(), int64(len(SmearingRungs(opt.SCF.Smearing))-1); got != want || want != 4 {
		t.Errorf("%s = %d after a fragment failed on every rung, want %d (of 4)", obs.MetricSCFSmearingEscalations, got, want)
	}
}
