package perf

import (
	"testing"

	"qframan/internal/accel"
	"qframan/internal/structure"
)

// TestSampleFragmentsSeedDeterministic pins the sampling contract: the same
// (sizes, seed) pair always yields the same fragments — IDs, atom counts,
// and coordinates bitwise — because every perf figure's reproducibility
// rests on it. The golden values double as a regression gate on the
// synthetic-protein decomposition itself.
func TestSampleFragmentsSeedDeterministic(t *testing.T) {
	sizes := []int{4, 8, 12, 16, 24}
	a, err := SampleFragments(sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleFragments(sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(sizes) || len(b) != len(sizes) {
		t.Fatalf("got %d and %d fragments for %d sizes", len(a), len(b), len(sizes))
	}
	// Golden: seed 1 on the 80-residue folded protein.
	wantID := []int{162, 162, 171, 175, 148}
	wantAtoms := []int{9, 9, 12, 16, 24}
	for i := range sizes {
		if a[i].ID != wantID[i] || a[i].NumAtoms() != wantAtoms[i] {
			t.Errorf("size %d: fragment id=%d atoms=%d, golden id=%d atoms=%d",
				sizes[i], a[i].ID, a[i].NumAtoms(), wantID[i], wantAtoms[i])
		}
		if a[i].ID != b[i].ID || a[i].NumAtoms() != b[i].NumAtoms() {
			t.Fatalf("size %d: repeat call diverged (%d/%d vs %d/%d)",
				sizes[i], a[i].ID, a[i].NumAtoms(), b[i].ID, b[i].NumAtoms())
		}
		for j := range a[i].Pos {
			if a[i].Pos[j] != b[i].Pos[j] {
				t.Fatalf("size %d atom %d: coordinates differ across identical calls", sizes[i], j)
			}
		}
	}
	// Different seeds draw from different proteins.
	if structure.RandomSequence(80, 1) == structure.RandomSequence(80, 2) {
		t.Fatal("seeds 1 and 2 generate the same protein sequence")
	}
}

// TestFig9SpeedupsMonotone checks the shape of the modeled Fig. 9 curves on
// the ORISE device model: strength reduction cuts the GEMM count and yields
// a real speedup, offloading adds on top of it, and the combined speedup
// grows with fragment size (larger fragments amortize transfers better),
// matching the paper's reported trend. Everything here is the deterministic
// cost model, so the run is also checked to be bit-reproducible.
func TestFig9SpeedupsMonotone(t *testing.T) {
	sizes := []int{6, 14}
	rows, err := Fig9(accel.ORISEDevice(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sizes) {
		t.Fatalf("%d rows for %d sizes", len(rows), len(sizes))
	}
	for i, r := range rows {
		if r.GEMMsReduced >= r.GEMMsNaive {
			t.Errorf("row %d (%d atoms): strength reduction kept %d of %d GEMMs",
				i, r.Atoms, r.GEMMsReduced, r.GEMMsNaive)
		}
		if r.SpeedupSR <= 1 {
			t.Errorf("row %d (%d atoms): SR speedup %.3f ≤ 1", i, r.Atoms, r.SpeedupSR)
		}
		if r.SpeedupSROffload <= r.SpeedupSR {
			t.Errorf("row %d (%d atoms): offload does not add to SR (%.3f ≤ %.3f)",
				i, r.Atoms, r.SpeedupSROffload, r.SpeedupSR)
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Atoms <= rows[i-1].Atoms {
			t.Fatalf("sampled sizes not increasing: %d then %d", rows[i-1].Atoms, rows[i].Atoms)
		}
		if rows[i].SpeedupSROffload < rows[i-1].SpeedupSROffload {
			t.Errorf("combined speedup not monotone in fragment size: %.3f (%d atoms) then %.3f (%d atoms)",
				rows[i-1].SpeedupSROffload, rows[i-1].Atoms, rows[i].SpeedupSROffload, rows[i].Atoms)
		}
	}

	again, err := Fig9(accel.ORISEDevice(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("row %d not bit-reproducible: %+v vs %+v", i, rows[i], again[i])
		}
	}
}

// TestCostModelPinned pins the modeled rows to the values recorded before
// Fig. 9 and Table I moved from running the engine under an instrumented
// executor to costing the engine's call lists (dfpt.GridCalls + accel.Cost):
// the cost model is integer arithmetic over shapes, so the rows must be
// exactly equal, not merely of the same trend. A deliberate change to the
// model, the sampling or the grid options re-records them.
func TestCostModelPinned(t *testing.T) {
	fig9, err := Fig9(accel.ORISEDevice(), []int{6, 14}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantFig9 := []Fig9Row{
		{Atoms: 9, GEMMsNaive: 540, GEMMsReduced: 216, SpeedupSR: 2.041667053975613, SpeedupSROffload: 4.52717955710442},
		{Atoms: 14, GEMMsNaive: 720, GEMMsReduced: 288, SpeedupSR: 2.0416666749373693, SpeedupSROffload: 5.217234524642235},
	}
	if len(fig9) != len(wantFig9) {
		t.Fatalf("Fig9: %d rows, want %d", len(fig9), len(wantFig9))
	}
	for i := range wantFig9 {
		if fig9[i] != wantFig9[i] {
			t.Errorf("Fig9 row %d = %#v, pinned %#v", i, fig9[i], wantFig9[i])
		}
	}

	orise, err := Table1("ORISE", accel.ORISEDevice(), ORISEAccelerators, 1, ORISEPeakPFLOPS, []int{9, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sunway, err := Table1("Sunway", accel.SunwayDevice(), SunwayNodes, 6, SunwayPeakPFLOPS, []int{9, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	table1 := append(orise, sunway...)
	wantTable1 := []Table1Row{
		{Platform: "ORISE", Part: "n1", MinTFLOPS: 0.09169183113549872, MaxTFLOPS: 0.2954534331550802, PFLOPS: 4.645743171486947, PctOfPeak: 0.029310682469949192},
		{Platform: "ORISE", Part: "h1", MinTFLOPS: 0.09169183113549872, MaxTFLOPS: 0.2954534331550802, PFLOPS: 4.645743171486947, PctOfPeak: 0.029310682469949192},
		{Platform: "Sunway", Part: "n1", MinTFLOPS: 1.1177456245504676, MaxTFLOPS: 2.6845772038180797, PFLOPS: 182.51149576169027, PctOfPeak: 0.13463521375161572},
		{Platform: "Sunway", Part: "h1", MinTFLOPS: 1.1177456245504676, MaxTFLOPS: 2.6845772038180797, PFLOPS: 182.51149576169027, PctOfPeak: 0.13463521375161572},
	}
	if len(table1) != len(wantTable1) {
		t.Fatalf("Table1: %d rows, want %d", len(table1), len(wantTable1))
	}
	for i := range wantTable1 {
		if table1[i] != wantTable1[i] {
			t.Errorf("Table1 row %d = %#v, pinned %#v", i, table1[i], wantTable1[i])
		}
	}
}
