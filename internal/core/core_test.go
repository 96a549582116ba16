package core

import (
	"sync"
	"testing"

	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/structure"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 200, 4000, 10
	cfg.Raman.Sigma = 30
	cfg.Raman.LanczosK = 40
	return cfg
}

func TestComputeRamanWaterDimers(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(2)
	res, err := ComputeRaman(sys, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spectrum == nil || len(res.Spectrum.Intensity) == 0 {
		t.Fatal("no spectrum produced")
	}
	// The O–H stretch region must dominate a water spectrum.
	peakAt := func(s *raman.Spectrum) float64 {
		best, bestI := 0.0, 0.0
		for i, v := range s.Intensity {
			if v > bestI {
				bestI = v
				best = s.Freq[i]
			}
		}
		return best
	}
	p := peakAt(res.Spectrum)
	if p < 1500 || p > 3900 {
		t.Fatalf("spectrum peak at %v cm⁻¹ — expected a vibrational band", p)
	}
	if res.Global.H.Dim() != 3*sys.NumAtoms() {
		t.Fatalf("global Hessian dimension %d", res.Global.H.Dim())
	}
	if res.SchedReport == nil || res.SchedReport.NumTasks == 0 {
		t.Fatal("scheduler report missing")
	}
}

func TestQFMatchesDirectSmallPeptide(t *testing.T) {
	// End-to-end validation: the fragmented spectrum of a small peptide
	// must closely match the direct (unfragmented) spectrum — for both
	// partitioners. The graph engine's pipelines ride along here to reuse
	// the direct reference (measured: QF 0.999, graph 0.933 vs direct,
	// QF vs graph 0.931 — see EXPERIMENTS.md).
	if testing.Short() {
		t.Skip("direct comparison is expensive")
	}
	sys, err := structure.BuildProtein("GAG")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()

	// QF path: with 3 residues the decomposition is a single whole-chain
	// fragment, so force a finer fragmentation via 4 residues.
	sys4, err := structure.BuildProtein("GAGA")
	if err != nil {
		t.Fatal(err)
	}
	_ = sys
	resQF, err := ComputeRaman(sys4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resQF.Decomposition.Stats.NumConcaps == 0 {
		t.Fatal("expected a real fragmentation (with concaps)")
	}

	// Direct path: single fragment covering the whole chain.
	direct := directDecomposition(sys4)
	resDirect, err := ComputeRamanDecomposed(sys4, direct, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sim := raman.CosineSimilarity(resQF.Spectrum, resDirect.Spectrum)
	if sim < 0.85 {
		t.Fatalf("QF vs direct spectrum cosine similarity %v", sim)
	}

	// Graph engine on the same straight chain: cutting mid-residue bonds
	// it chose itself, it must still track both the direct reference and
	// the QF spectrum.
	gOpt := fragment.DefaultGraphOptions()
	gOpt.TargetAtoms = 16
	cfg.Partitioner = fragment.GraphPartitioner{Opt: gOpt}
	resG, err := ComputeRaman(sys4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := resG.Decomposition.Stats; st.NumParts < 2 || st.NumCutBonds == 0 {
		t.Fatalf("graph path did not really fragment: %+v", st)
	}
	simGD := raman.CosineSimilarity(resG.Spectrum, resDirect.Spectrum)
	simGQ := raman.CosineSimilarity(resG.Spectrum, resQF.Spectrum)
	t.Logf("graph vs direct %v, graph vs QF %v", simGD, simGQ)
	if simGD < 0.85 {
		t.Fatalf("graph vs direct spectrum cosine similarity %v < 0.85 (EXPERIMENTS.md)", simGD)
	}
	if simGQ < 0.85 {
		t.Fatalf("graph vs QF spectrum cosine similarity %v < 0.85 (EXPERIMENTS.md)", simGQ)
	}
}

// directDecomposition wraps the whole system as one fragment.
func directDecomposition(sys *structure.System) *fragment.Decomposition {
	f := fragment.Fragment{NumReal: sys.NumAtoms(), Coeff: 1}
	f.Pos = sys.Positions()
	for _, a := range sys.Atoms {
		f.Els = append(f.Els, a.El)
	}
	for i := 0; i < sys.NumAtoms(); i++ {
		f.GlobalIdx = append(f.GlobalIdx, i)
	}
	d := &fragment.Decomposition{Fragments: []fragment.Fragment{f}}
	return d
}

func TestComputeRamanRejectsEmpty(t *testing.T) {
	sys := &structure.System{}
	if _, err := ComputeRaman(sys, DefaultConfig()); err == nil {
		t.Fatal("accepted empty system")
	}
}

func TestHessianOnlyRun(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)
	cfg := fastConfig()
	cfg.Sched.Job.SkipAlpha = true
	res, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spectrum != nil {
		t.Fatal("Hessian-only run produced a spectrum")
	}
	if len(res.Global.H.Val) == 0 {
		t.Fatal("empty Hessian")
	}
}

// TestWaterBoxLanczosMatchesDense: a water box at the wb-resume workload's
// spectral settings — σ = 20 cm⁻¹, K = 120 — gives the spectrum of the dense
// eigendecomposition, the exact route that K ≥ n selects. The box is the 3×4×4 one (n = 432), the smallest of the
// ladder whose spectrum the route sends to the recurrence at these settings
// (wb-resume's own 3×3×3 box is cheaper to diagonalize), so the ω-recurrence
// decides which steps sweep.
func TestWaterBoxLanczosMatchesDense(t *testing.T) {
	sys := structure.BuildWaterBox(3, 4, 4, geom.Vec3{})
	cfg := DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 50, 4000, 5
	cfg.Raman.Sigma = 20
	cfg.Raman.LanczosK = 120
	reg := obs.NewRegistry()
	cfg.Sched.Obs = obs.NewScope(nil, reg)
	res, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if steps := reg.Counter(obs.MetricLanczosSteps).Value(); steps == 0 {
		t.Fatalf("n = %d at K = %d took the exact route", res.Global.H.Dim(), cfg.Raman.LanczosK)
	}
	exactOpt := cfg.Raman
	exactOpt.LanczosK = res.Global.H.Dim()
	exact, err := raman.LanczosSpectrum(res.Global, exactOpt)
	if err != nil {
		t.Fatal(err)
	}
	sim := raman.CosineSimilarity(exact, res.Spectrum)
	t.Logf("Lanczos vs exact cosine %.10f", sim)
	if sim < 0.99999 {
		t.Fatalf("Lanczos vs exact cosine %.10f, want ≥ 0.99999", sim)
	}
}

var quadratureBox struct {
	once sync.Once
	g    *hessian.Global
	err  error
}

// quadratureBoxGlobal returns the assembled 3×3×3 water box (n = 243),
// computed once per test binary. At K = 20 its spectrum takes the Lanczos
// route: 20 steps cost a fraction of one eigendecomposition of its 243
// coordinates, where the dimers' spectra always take the exact route.
func quadratureBoxGlobal(t *testing.T) *hessian.Global {
	t.Helper()
	quadratureBox.once.Do(func() {
		var res *Result
		res, quadratureBox.err = ComputeRaman(structure.BuildWaterBox(3, 3, 3, geom.Vec3{}), fastConfig())
		if quadratureBox.err == nil {
			quadratureBox.g = res.Global
		}
	})
	if quadratureBox.err != nil {
		t.Fatal(quadratureBox.err)
	}
	return quadratureBox.g
}
