package core

import (
	"testing"

	"qframan/internal/fragment"
	"qframan/internal/raman"
	"qframan/internal/structure"
)

// TestGraphMatchesQFFoldedProtein cross-validates the two partitioners: the
// graph engine knows nothing about peptide chemistry, yet its spectrum of a
// folded protein must agree with the QF engine's. The tolerance is the one
// recorded in EXPERIMENTS.md (measured 0.939 on this system, 0.990 on a
// fold-2 GAGA; the harsher fold-3 GAGAG case, where both engines drift
// from the direct reference together, is recorded there too) — tighten
// only with the evidence to back it.
func TestGraphMatchesQFFoldedProtein(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation runs two full pipelines")
	}
	sys, err := structure.BuildProteinFolded("GGGG", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()

	resQF, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resQF.Decomposition.Stats.Partitioner != "qf" || resQF.Decomposition.Stats.NumConcaps == 0 {
		t.Fatalf("QF path did not really fragment: %+v", resQF.Decomposition.Stats)
	}

	// The default 24-atom target would let the cleanup/parity passes merge
	// this 31-atom protein into a single part; 12 forces a real partition
	// (3 parts, 2 cut bonds) while keeping the runtime of two pipelines
	// tolerable.
	gOpt := fragment.DefaultGraphOptions()
	gOpt.TargetAtoms = 12
	cfg.Partitioner = fragment.GraphPartitioner{Opt: gOpt}
	resG, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := resG.Decomposition.Stats
	if st.Partitioner != "graph" || st.NumParts < 2 || st.NumCutBonds == 0 {
		t.Fatalf("graph path did not really fragment: %+v", st)
	}

	sim := raman.CosineSimilarity(resQF.Spectrum, resG.Spectrum)
	t.Logf("QF vs graph spectrum cosine similarity: %v", sim)
	if sim < 0.85 {
		t.Fatalf("QF vs graph spectrum cosine similarity %v < 0.85 (EXPERIMENTS.md)", sim)
	}
}

// TestPolymerMeltEndToEnd runs a non-protein workload through the full
// pipeline: the QF engine must refuse it and the graph engine must produce a
// spectrum with C–H/O–H stretch bands.
func TestPolymerMeltEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	sys := structure.BuildPolymerMelt(1, 3, 5)
	cfg := fastConfig()

	if _, err := ComputeRaman(sys, cfg); err == nil {
		t.Fatal("QF engine accepted a generic-molecule system")
	}

	gOpt := fragment.DefaultGraphOptions()
	gOpt.TargetAtoms = 12
	cfg.Partitioner = fragment.GraphPartitioner{Opt: gOpt}
	res, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spectrum == nil || len(res.Spectrum.Intensity) == 0 {
		t.Fatal("no spectrum produced")
	}
	st := res.Decomposition.Stats
	if st.NumParts < 2 || st.NumCutBonds == 0 {
		t.Fatalf("melt not fragmented: %+v", st)
	}
	// A PEG chain must show vibrational bands; the strongest intensity in
	// the stretch region must be nonzero.
	var stretch float64
	for i, f := range res.Spectrum.Freq {
		if f >= 2500 && f <= 3800 && res.Spectrum.Intensity[i] > stretch {
			stretch = res.Spectrum.Intensity[i]
		}
	}
	if stretch <= 0 {
		t.Fatal("no C–H/O–H stretch intensity in 2500–3800 cm⁻¹")
	}
}
