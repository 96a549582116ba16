package hessian

import (
	"errors"
	"math"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/scf"
	"qframan/internal/structure"
)

// systemFragment wraps a whole generated system as one fragment.
func systemFragment(sys *structure.System) *fragment.Fragment {
	f := &fragment.Fragment{NumReal: len(sys.Atoms), Coeff: 1}
	for i, a := range sys.Atoms {
		f.Els = append(f.Els, a.El)
		f.Pos = append(f.Pos, a.Pos)
		f.GlobalIdx = append(f.GlobalIdx, i)
	}
	return f
}

func dimerFragment() *fragment.Fragment {
	return systemFragment(structure.BuildWaterDimerSystem(1))
}

func glycineFragment(t testing.TB) *fragment.Fragment {
	t.Helper()
	sys, err := structure.BuildProtein("G")
	if err != nil {
		t.Fatal(err)
	}
	return systemFragment(sys)
}

// warmFixture is a calibrated fragment model with the options SolveReference
// hands its displacement workers.
func warmFixture(t testing.TB, f *fragment.Fragment) (*scf.Model, JobOptions) {
	t.Helper()
	m, err := ModelForFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := SolveReference(m, DefaultJobOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m, *warm
}

// allDisplacements runs the 6N jobs of m through run, in the loop's order.
func allDisplacements(t testing.TB, m *scf.Model, run func(atom, axis, sign int) (*DisplacementResult, error)) []*DisplacementResult {
	t.Helper()
	var out []*DisplacementResult
	for a := 0; a < m.NumAtoms(); a++ {
		for d := 0; d < 3; d++ {
			for _, sign := range [2]int{1, -1} {
				r, err := run(a, d, sign)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// TestDisplacerMatchesOneShotBitwise: the 6N jobs of a fragment solved in one
// workspace — every buffer, bound GEMM, mixer ring and cycle environment
// inherited from the job before — give the FragmentData of 6N one-shot jobs,
// each in a workspace of its own, bit for bit: with no chord data handed over
// (the Pulay charge loop on both sides), and with it.
func TestDisplacerMatchesOneShotBitwise(t *testing.T) {
	frags := map[string]*fragment.Fragment{"water": waterFragment(), "dimer": dimerFragment()}
	if !testing.Short() {
		frags["glycine"] = glycineFragment(t)
	}
	for name, f := range frags {
		m, opt := warmFixture(t, f)
		if opt.SCF.Chord == nil {
			t.Fatalf("%s: SolveReference handed over no chord matrix", name)
		}
		for _, chord := range []bool{false, true} {
			if !chord {
				opt.SCF.Chord = nil
			}
			disp := NewDisplacer(m)
			shared := allDisplacements(t, m, func(a, d, s int) (*DisplacementResult, error) { return disp.Run(a, d, s, opt) })
			oneShot := allDisplacements(t, m, func(a, d, s int) (*DisplacementResult, error) { return RunDisplacement(m, a, d, s, opt) })
			got, err := BuildFragmentData(m.NumAtoms(), shared, opt.Step, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildFragmentData(m.NumAtoms(), oneShot, opt.Step, true)
			if err != nil {
				t.Fatal(err)
			}
			if !got.BitEqual(want) {
				t.Errorf("%s (chord %v): workspace and one-shot displacement loops differ", name, chord)
			}
		}
	}
}

// TestChordAndPulayLoopsGiveTheSameFragmentData: the chord matrix is warm-start
// data — it shortens the displaced charge loops and moves their fixed points
// by less than the SCF tolerance, which a central difference over 2·Step turns
// into at most Tol/Step ≈ 2·10⁻⁷ in a Hessian element and less in the
// polarizability and dipole derivatives.
func TestChordAndPulayLoopsGiveTheSameFragmentData(t *testing.T) {
	for name, f := range map[string]*fragment.Fragment{"water": waterFragment(), "dimer": dimerFragment()} {
		m, opt := warmFixture(t, f)
		data := func(o JobOptions) *FragmentData {
			disp := NewDisplacer(m)
			fd, err := BuildFragmentData(m.NumAtoms(),
				allDisplacements(t, m, func(a, d, s int) (*DisplacementResult, error) { return disp.Run(a, d, s, o) }), o.Step, true)
			if err != nil {
				t.Fatal(err)
			}
			return fd
		}
		chord := data(opt)
		opt.SCF.Chord = nil
		pulay := data(opt)
		worst := maxDataDiff(chord, pulay)
		if worst > 2e-6 {
			t.Errorf("%s: chord and Pulay displacement loops differ by %g", name, worst)
		}
		t.Logf("%s: largest difference %.2g", name, worst)
	}
}

// countingScope returns job options whose SCF solves add their iterations to
// fs.
func countingScope(opt JobOptions, fs *obs.FragStats) JobOptions {
	opt.Obs = obs.NewScope(nil, obs.NewRegistry()).WithFrag(fs)
	return opt
}

// TestPairedDisplacementsSaveSCFIterations: the fragment engine starts each
// coordinate's −Step solve from the predictor 2·q₀ − q₊ its +Step partner
// makes available. On glycine that takes the whole fragment's SCF iterations —
// reference and 6N displaced solves, counted by obs.FragStats — at least 10 %
// below the same loop with every displaced solve started from q₀, and moves
// the Hessian by less than the SCF tolerance does (Tol/Step ≈ 2·10⁻⁷ in an
// element). Glycine is gapped, so both loops run SCF + forces only.
func TestPairedDisplacementsSaveSCFIterations(t *testing.T) {
	f := glycineFragment(t)
	var paired, unpaired obs.FragStats
	got, ref, err := ComputeFragment(f, countingScope(DefaultJobOptions(), &paired), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelForFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := SolveReference(m, countingScope(DefaultJobOptions(), &unpaired))
	if err != nil {
		t.Fatal(err)
	}
	disp := NewDisplacer(m)
	warm.SkipAlpha = true
	want, err := BuildFragmentData(m.NumAtoms(),
		allDisplacements(t, m, func(a, d, s int) (*DisplacementResult, error) { return disp.Run(a, d, s, *warm) }), warm.Step, false)
	if err != nil {
		t.Fatal(err)
	}
	solves := float64(6 * m.NumAtoms())
	t.Logf("glycine: %d SCF iterations paired, %d unpaired (reference %d; %.2f vs %.2f per displaced solve)",
		paired.SCFIters(), unpaired.SCFIters(), ref.Iterations,
		float64(paired.SCFIters()-int64(ref.Iterations))/solves, float64(unpaired.SCFIters()-int64(ref.Iterations))/solves)
	if 10*paired.SCFIters() > 9*unpaired.SCFIters() {
		t.Errorf("paired displacements take %d SCF iterations, unpaired %d: want ≥ 10 %% fewer", paired.SCFIters(), unpaired.SCFIters())
	}
	if worst := got.Hess.MaxAbsDiff(want.Hess); worst > 2e-6 {
		t.Errorf("paired and unpaired displacement loops differ by %g", worst)
	}
}

// TestFailedPlusStepDrainsTheQueue: a +Step job that fails queues no −Step
// partner, and the job queue must still close so that every worker returns.
// With Step equal to minus the H₂ bond length, the reference solves but the
// +Step job of the second hydrogen along x puts it on the first: a singular
// overlap. (The first hydrogen's −Step job meets one too, but the queue hands
// it out only after every +Step job.) At every width the fragment fails with
// the +Step job's error instead of hanging.
func TestFailedPlusStepDrainsTheQueue(t *testing.T) {
	f := &fragment.Fragment{
		Els:       []constants.Element{constants.H, constants.H},
		Pos:       []geom.Vec3{{}, geom.V(0.74, 0, 0)},
		GlobalIdx: []int{0, 1}, NumReal: 2, Coeff: 1,
	}
	opt := DefaultJobOptions()
	opt.Step = -f.Pos[1].X * constants.BohrPerAngstrom
	for _, workers := range []int{1, 2, 3} {
		_, _, err := ComputeFragment(f, opt, workers)
		if !errors.Is(err, linalg.ErrNotPositiveDefinite) || !strings.Contains(err.Error(), "atom 1 axis 0 sign +1") {
			t.Errorf("width %d: %v, want the near-singular overlap of atom 1's +Step job", workers, err)
		}
	}
}

// maxDataDiff returns the largest difference between two fragment data's
// Hessian, ∂α and ∂μ entries.
func maxDataDiff(a, b *FragmentData) float64 {
	worst := a.Hess.MaxAbsDiff(b.Hess)
	for c := range a.DAlpha {
		for i, v := range a.DAlpha[c] {
			worst = math.Max(worst, math.Abs(v-b.DAlpha[c][i]))
		}
	}
	for k := range a.DDipole {
		for i, v := range a.DDipole[k] {
			worst = math.Max(worst, math.Abs(v-b.DDipole[k][i]))
		}
	}
	return worst
}

// TestRunDisplacementAllocationCeiling: a steady-state job of a dimer worker
// (γ mode, observability off) allocates its DisplacementResult, its force
// slice, the par region closure of the force pair sum and the argument lists
// of its four (disabled) spans — 7 objects measured, against 1 946 when every
// job rebuilt the model, its workspaces, the mixer rings and the cycle
// environment.
func TestRunDisplacementAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	m, opt := warmFixture(t, dimerFragment())
	disp := NewDisplacer(m)
	job := 0
	run := func() {
		atom, axis, sign := (job/6)%m.NumAtoms(), (job/2)%3, 1-2*(job%2)
		job++
		if _, err := disp.Run(atom, axis, sign, opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // the first job sizes the workspace
	allocs := testing.AllocsPerRun(12, run)
	if allocs > 25 {
		t.Errorf("one displacement job allocates %.1f objects, ceiling 25", allocs)
	}
	t.Logf("%.1f objects per displacement job", allocs)
}

// TestEigensolverFailureIsDeterministic: a non-finite Hamiltonian exhausts the
// QL sweeps; that comes back through the displacement job as an error wrapping
// linalg.ErrEigNoConvergence — not as a panic for the leader to recover and
// retry as if a worker had crashed — and the runtime's classifier calls it
// deterministic.
func TestEigensolverFailureIsDeterministic(t *testing.T) {
	m, err := ModelForFragment(waterFragment())
	if err != nil {
		t.Fatal(err)
	}
	bad := *m
	bad.H0 = m.H0.Clone()
	bad.H0.Set(2, 1, math.NaN())
	bad.H0.Set(1, 2, math.NaN())
	_, err = RunDisplacement(&bad, 1, 0, +1, DefaultJobOptions())
	if err == nil {
		t.Fatal("NaN Hamiltonian produced a displacement result")
	}
	if !errors.Is(err, linalg.ErrEigNoConvergence) {
		t.Fatalf("error does not wrap linalg.ErrEigNoConvergence: %v", err)
	}
	if c := faults.Classify(err); c != faults.Deterministic {
		t.Fatalf("eigensolver failure classified %v, want Deterministic", c)
	}
	if _, _, err := SolveReference(&bad, DefaultJobOptions()); !errors.Is(err, linalg.ErrEigNoConvergence) {
		t.Fatalf("reference solve: %v", err)
	}
}

// BenchmarkRunDisplacement is one steady-state job of a displacement worker,
// cycling through the fragment's 6N jobs: allocations and SCF iterations per
// job next to the time.
func BenchmarkRunDisplacement(b *testing.B) {
	for _, fx := range []struct {
		name string
		frag *fragment.Fragment
	}{{"water", waterFragment()}, {"dimer", dimerFragment()}, {"glycine", glycineFragment(b)}} {
		b.Run(fx.name, func(b *testing.B) {
			m, opt := warmFixture(b, fx.frag)
			disp := NewDisplacer(m)
			// SCF iterations per job, counted once over the 6N jobs with the
			// fragment accumulator on; the timed loop runs uninstrumented.
			var fs obs.FragStats
			counted := opt
			counted.Obs = obs.NewScope(nil, obs.NewRegistry()).WithFrag(&fs)
			jobs := allDisplacements(b, m, func(a, d, s int) (*DisplacementResult, error) { return disp.Run(a, d, s, counted) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				atom, axis, sign := (i/6)%m.NumAtoms(), (i/2)%3, 1-2*(i%2)
				if _, err := disp.Run(atom, axis, sign, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fs.SCFIters())/float64(len(jobs)), "scf_iters/op")
		})
	}
}

// BenchmarkComputeFragment is the fragment engine end to end at width 1 —
// model and calibration, reference solve and chord matrix, the 6N displaced
// jobs in the loop's own order, finite differences — reporting the SCF
// iterations per displaced solve next to the time: the loop order is what lets
// a −Step solve start from its +Step partner, which single jobs
// (BenchmarkRunDisplacement) cannot show.
func BenchmarkComputeFragment(b *testing.B) {
	for _, fx := range []struct {
		name string
		frag *fragment.Fragment
	}{{"water", waterFragment()}, {"dimer", dimerFragment()}, {"glycine", glycineFragment(b)}} {
		b.Run(fx.name, func(b *testing.B) {
			var fs obs.FragStats
			_, ref, err := ComputeFragment(fx.frag, countingScope(DefaultJobOptions(), &fs), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ComputeFragment(fx.frag, DefaultJobOptions(), 1); err != nil {
					b.Fatal(err)
				}
			}
			displaced := fs.SCFIters() - int64(ref.Iterations)
			b.ReportMetric(float64(displaced)/float64(6*fx.frag.NumAtoms()), "scf_iters/solve")
		})
	}
}
