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
// hands its displacement loop.
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

// allDisplacements runs the 6N jobs of m one by one (RunDisplacement), each
// from the charges opt hands it, in the loop's order.
func allDisplacements(t testing.TB, m *scf.Model, opt JobOptions) []*DisplacementResult {
	t.Helper()
	var out []*DisplacementResult
	for a := 0; a < m.NumAtoms(); a++ {
		for d := 0; d < 3; d++ {
			for _, sign := range [2]int{1, -1} {
				r, err := RunDisplacement(m, a, d, sign, opt)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// TestWarmAndColdLoopsGiveTheSameFragmentData: the reference charges are
// warm-start data — they shorten the displaced charge loops and move their
// fixed points by less than the SCF tolerance, which a central difference
// over 2·Step turns into at most Tol/Step ≈ 2·10⁻⁷ in a Hessian element and
// less in the polarizability and dipole derivatives. So the loop started from
// neutral atoms gives the same fragment data.
func TestWarmAndColdLoopsGiveTheSameFragmentData(t *testing.T) {
	for name, f := range map[string]*fragment.Fragment{"water": waterFragment(), "dimer": dimerFragment()} {
		m, opt := warmFixture(t, f)
		data := func(o JobOptions) *FragmentData {
			fd, err := BuildFragmentData(m.NumAtoms(), allDisplacements(t, m, o), o.Step, true)
			if err != nil {
				t.Fatal(err)
			}
			return fd
		}
		warm := data(opt)
		opt.SCF.InitDeltaQ = nil
		cold := data(opt)
		worst := maxDataDiff(warm, cold)
		if worst > 2e-6 {
			t.Errorf("%s: warm and cold displacement loops differ by %g", name, worst)
		}
		t.Logf("%s: largest difference %.2g", name, worst)
	}
}

// TestFailedPlusStepDrainsTheQueue: a failing job fails the loop with its own
// error. With Step equal to minus the H₂ bond length, the reference solves but
// two jobs put one hydrogen on the other — a singular overlap: job 1 (atom 0's
// −Step along x) and job 6 (atom 1's +Step along x). At kernel budgets 1 and 4
// the loop returns job 1's error, the first failed job in job order.
func TestFailedPlusStepDrainsTheQueue(t *testing.T) {
	f := &fragment.Fragment{
		Els:       []constants.Element{constants.H, constants.H},
		Pos:       []geom.Vec3{{}, geom.V(0.74, 0, 0)},
		GlobalIdx: []int{0, 1}, NumReal: 2, Coeff: 1,
	}
	m, err := ModelForFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultJobOptions()
	opt.Step = -f.Pos[1].X * constants.BohrPerAngstrom
	warm, _, err := SolveReference(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer par.SetBudget(par.Budget())
	for _, budget := range []int{1, 4} {
		par.SetBudget(budget)
		_, err := displace(m, *warm)
		if !errors.Is(err, linalg.ErrNotPositiveDefinite) || !strings.Contains(err.Error(), "atom 0 axis 0 sign -1") {
			t.Errorf("kernel budget %d: %v, want the near-singular overlap of atom 0's −Step job", budget, err)
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

// TestEigensolverFailureIsDeterministic: a non-finite Hamiltonian exhausts the
// QL sweeps; that comes back through the displacement job (the displaced model
// poisoned) and through the reference solve as an error wrapping
// linalg.ErrEigNoConvergence — not as a panic for the leader to recover and
// retry as if a worker had crashed — and the runtime's classifier calls it
// deterministic.
func TestEigensolverFailureIsDeterministic(t *testing.T) {
	m, err := ModelForFragment(waterFragment())
	if err != nil {
		t.Fatal(err)
	}
	poison := func(m *scf.Model) *scf.Model {
		bad := *m
		bad.H0 = m.H0.Clone()
		bad.H0.Set(2, 1, math.NaN())
		bad.H0.Set(1, 2, math.NaN())
		return &bad
	}
	opt := DefaultJobOptions()
	_, err = runJob(poison(m.Displaced(1, 0, opt.Step)), 1, 0, +1, opt)
	if err == nil {
		t.Fatal("NaN Hamiltonian produced a displacement result")
	}
	if !errors.Is(err, linalg.ErrEigNoConvergence) {
		t.Fatalf("error does not wrap linalg.ErrEigNoConvergence: %v", err)
	}
	if c := faults.Classify(err); c != faults.Deterministic {
		t.Fatalf("eigensolver failure classified %v, want Deterministic", c)
	}
	if _, _, err := SolveReference(poison(m), opt); !errors.Is(err, linalg.ErrEigNoConvergence) {
		t.Fatalf("reference solve: %v", err)
	}
}

// BenchmarkRunDisplacement is one one-shot job of the displacement loop — the
// displaced model's rebuild, SCF, forces, dipole and polarizability — cycling
// through the fragment's 6N jobs: allocations and SCF iterations per job next
// to the time.
func BenchmarkRunDisplacement(b *testing.B) {
	for _, fx := range []struct {
		name string
		frag *fragment.Fragment
	}{{"water", waterFragment()}, {"dimer", dimerFragment()}, {"glycine", glycineFragment(b)}} {
		b.Run(fx.name, func(b *testing.B) {
			m, opt := warmFixture(b, fx.frag)
			// SCF iterations per job, counted once over the 6N jobs from the
			// registry's scf_iterations histogram; the timed loop runs
			// uninstrumented.
			reg := obs.NewRegistry()
			counted := opt
			counted.Obs = obs.NewScope(nil, reg)
			jobs := allDisplacements(b, m, counted)
			iters := reg.Snapshot().Hists[obs.MetricSCFIterations].Sum
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				atom, axis, sign := (i/6)%m.NumAtoms(), (i/2)%3, 1-2*(i%2)
				if _, err := RunDisplacement(m, atom, axis, sign, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(iters/float64(len(jobs)), "scf_iters/op")
		})
	}
}

// BenchmarkComputeFragment is the fragment engine end to end — model and
// calibration, reference solve, and the analytic route these gapped fragments
// take (BenchmarkRunDisplacement times the displacement loop's jobs).
func BenchmarkComputeFragment(b *testing.B) {
	for _, fx := range []struct {
		name string
		frag *fragment.Fragment
	}{{"water", waterFragment()}, {"dimer", dimerFragment()}, {"glycine", glycineFragment(b)}} {
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ComputeFragment(fx.frag, DefaultJobOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
