package core

import (
	"math"
	"testing"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// loopProcess is a fragment engine that forces the paper's displacement loop
// through the exported names alone: the calibrated model, the reference solve
// and its warm-start hand-over, 6N one-shot displacement jobs, and the central
// differences of their results.
func loopProcess(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
	m, err := hessian.ModelForFragment(f)
	if err != nil {
		return nil, err
	}
	warm, _, err := hessian.SolveReference(m, opt.Job)
	if err != nil {
		return nil, err
	}
	var results []*hessian.DisplacementResult
	for atom := 0; atom < m.NumAtoms(); atom++ {
		for axis := 0; axis < 3; axis++ {
			for _, sign := range [2]int{1, -1} {
				r, err := hessian.RunDisplacement(m, atom, axis, sign, *warm)
				if err != nil {
					return nil, err
				}
				results = append(results, r)
			}
		}
	}
	return hessian.BuildFragmentData(m.NumAtoms(), results, warm.Step, !opt.Job.SkipAlpha)
}

// maxRelDiff returns max|a − b| over max|b| of two sets of vectors.
func maxRelDiff(a, b [][]float64) float64 {
	var diff, scale float64
	for k := range b {
		for i, v := range b[k] {
			diff = math.Max(diff, math.Abs(a[k][i]-v))
			scale = math.Max(scale, math.Abs(v))
		}
	}
	return diff / scale
}

// TestAnalyticPipelineMatchesTheDisplacementLoop is the pipeline-level oracle
// of the analytic route: two water dimers through the whole γ-mode pipeline,
// once as production runs it — every fragment gapped, so no displaced job and
// no finite-difference fragment — and once with the fragment engine replaced
// by the displacement loop (loopProcess). The assembled mass-weighted Hessian,
// ∂α and ∂μ agree to the loop's central-difference truncation: its error is
// Step²/6·f‴, and with f varying on the scale of a tenth of a bond (0.2 bohr,
// f‴/f′ ≈ 25 bohr⁻²) that is 4·Step² = 10⁻⁴ of the largest entry at
// Step = 5·10⁻³ bohr. The two spectra agree to a cosine of 0.99999.
func TestAnalyticPipelineMatchesTheDisplacementLoop(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(2)
	cfg := fastConfig()
	cfg.IR = true
	reg := obs.NewRegistry()
	cfg.Sched.Obs = obs.NewScope(nil, reg)
	analytic, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := reg.Counter(obs.MetricHessianDisplacedJobs).Value()
	fdFrags := reg.Counter(obs.MetricHessianFDDerivativeFragments).Value()
	if jobs != 0 || fdFrags != 0 {
		t.Errorf("analytic run: %d displaced jobs, %d finite-difference fragments; want none", jobs, fdFrags)
	}

	reg = obs.NewRegistry()
	cfg.Sched.Obs = obs.NewScope(nil, reg)
	cfg.Sched.Process = loopProcess
	loop, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The engine runs once per content class, on its representative.
	want := 0
	frags := loop.Decomposition.Fragments
	for _, r := range store.Classify(frags, cfg.Sched.Job).Reps {
		want += 6 * frags[r].NumAtoms()
	}
	if jobs := reg.Counter(obs.MetricHessianDisplacedJobs).Value(); jobs != int64(want) {
		t.Errorf("loop run: %d displaced jobs, want 6N summed over the class representatives, %d", jobs, want)
	}

	n := analytic.Global.H.Dim()
	ha, hl := make([]float64, n*n), make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ha[i*n+j], hl[i*n+j] = analytic.Global.H.At(i, j), loop.Global.H.At(i, j)
		}
	}
	bound := 4 * hessian.DefaultStep * hessian.DefaultStep
	hess := maxRelDiff([][]float64{ha}, [][]float64{hl})
	dAlpha := maxRelDiff(analytic.Global.DAlpha[:], loop.Global.DAlpha[:])
	dMu := maxRelDiff(analytic.Global.DDipole[:], loop.Global.DDipole[:])
	ramanCos := raman.CosineSimilarity(analytic.Spectrum, loop.Spectrum)
	irCos := raman.CosineSimilarity(analytic.IRSpectrum, loop.IRSpectrum)
	t.Logf("analytic vs loop: Hessian %.1e, ∂α %.1e, ∂μ %.1e (bound %.0e); Raman cosine %.8f, IR cosine %.8f",
		hess, dAlpha, dMu, bound, ramanCos, irCos)
	if hess > bound || dAlpha > bound || dMu > bound {
		t.Errorf("assembled analytic data off the loop's: Hessian %.1e, ∂α %.1e, ∂μ %.1e, bound %.0e", hess, dAlpha, dMu, bound)
	}
	if ramanCos < 0.99999 || irCos < 0.99999 {
		t.Errorf("spectra differ: Raman cosine %.8f, IR cosine %.8f", ramanCos, irCos)
	}
}
