package hessian

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/structure"
)

// randomFragmentData gives every fragment of dec a random symmetric Hessian
// and random ∂α and ∂μ of its size (cap atoms included) — assembly reads
// nothing else, so no SCF runs.
func randomFragmentData(dec *fragment.Decomposition, seed int64) []*FragmentData {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*FragmentData, len(dec.Fragments))
	for fi := range dec.Fragments {
		n := 3 * len(dec.Fragments[fi].GlobalIdx)
		fd := &FragmentData{Hess: linalg.NewMatrix(n, n)}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				fd.Hess.Set(i, j, v)
				fd.Hess.Set(j, i, v)
			}
		}
		for c := range fd.DAlpha {
			fd.DAlpha[c] = make([]float64, n)
			for i := range fd.DAlpha[c] {
				fd.DAlpha[c][i] = rng.NormFloat64()
			}
		}
		for k := range fd.DDipole {
			fd.DDipole[k] = make([]float64, n)
			for i := range fd.DDipole[k] {
				fd.DDipole[k][i] = rng.NormFloat64()
			}
		}
		out[fi] = fd
	}
	return out
}

// resumeBox is the jittered 3×3×3 water box (81 atoms) of the wb-resume
// benchmark workload at seed 1: every atom jittered by ≤ 0.001 Å per axis,
// then round-tripped through the text form.
func resumeBox(t testing.TB) *structure.System {
	t.Helper()
	base := structure.BuildWaterBox(3, 3, 3, geom.Vec3{})
	frames := structure.PerturbedTrajectory(base, structure.PerturbOptions{Frames: 2, MoveFrac: 1, Jitter: 0.001, Seed: 1})
	sys, err := structure.ApplyFrame(base, frames[1])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if sys, err = structure.ReadSystem(&buf); err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustDecompose(t testing.TB, p fragment.Partitioner, sys *structure.System) *fragment.Decomposition {
	t.Helper()
	dec, err := p.Partition(sys)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestAssembleMatchesCOOOracle: the one-pass assembly gives the COO
// reference's RowPtr, Col, Val, ∂α, ∂μ and Dropped bit for bit — every entry
// summed in decomposition order — on the water dimer, wb-resume's box, a
// capped peptide in water (cap atoms and concaps) under both partitioners, a
// degraded assembly with two failed fragments, and one fragment added with
// Coeff +1 and −1, which leaves no stored entry.
func TestAssembleMatchesCOOOracle(t *testing.T) {
	qf := fragment.QFPartitioner{Opt: fragment.DefaultOptions()}
	graph := fragment.GraphPartitioner{Opt: fragment.DefaultGraphOptions()}
	dimer := structure.BuildWaterDimerSystem(1)
	box := resumeBox(t)
	peptide, err := structure.BuildProteinFolded("GAGA", 2)
	if err != nil {
		t.Fatal(err)
	}
	solvated := structure.SolvateInWater(peptide, 1.5, 2.4)
	solvatedQF := mustDecompose(t, qf, solvated)
	var caps, concaps int
	for _, f := range solvatedQF.Fragments {
		if f.NumReal < len(f.GlobalIdx) {
			caps++
		}
		if f.Kind == fragment.KindConcap {
			concaps++
		}
	}
	if caps == 0 || concaps == 0 {
		t.Fatalf("solvated peptide: %d capped fragments, %d concaps; the case needs both", caps, concaps)
	}
	cancel := mustDecompose(t, qf, dimer)
	pair := cancel.Fragments[len(cancel.Fragments)-1]
	cancel.Fragments = []fragment.Fragment{pair, pair}
	cancel.Fragments[1].Coeff = -pair.Coeff

	for _, c := range []struct {
		name   string
		sys    *structure.System
		dec    *fragment.Decomposition
		failed []int
		empty  bool // fragments 0 and 1 share their data, and nothing is stored
	}{
		{"dimer", dimer, mustDecompose(t, qf, dimer), nil, false},
		{"wb-resume box", box, mustDecompose(t, qf, box), nil, false},
		{"solvated peptide", solvated, solvatedQF, nil, false},
		{"solvated peptide, graph", solvated, mustDecompose(t, graph, solvated), nil, false},
		{"wb-resume box, two failed", box, mustDecompose(t, qf, box), []int{7, 3}, false},
		{"+1 and −1", dimer, cancel, nil, true},
	} {
		frags := randomFragmentData(c.dec, 53)
		if c.empty {
			frags[1] = frags[0]
		}
		for _, fi := range c.failed {
			frags[fi] = nil
		}
		masses := c.sys.Masses()
		got, err := AssembleDegraded(c.dec, masses, frags, true, c.failed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := refAssemble(c.dec, masses, frags, true, c.failed)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if got.H.N != want.H.N || !slices.Equal(got.H.RowPtr, want.H.RowPtr) || !slices.Equal(got.H.Col, want.H.Col) {
			t.Errorf("%s: CSR pattern differs from the reference (%d vs %d stored)", c.name, len(got.H.Col), len(want.H.Col))
		}
		if !slices.EqualFunc(got.H.Val, want.H.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("%s: Val differs from the reference", c.name)
		}
		for k := range got.DAlpha {
			if !bitEqualSlice(got.DAlpha[k], want.DAlpha[k]) {
				t.Errorf("%s: ∂α component %d differs from the reference", c.name, k)
			}
		}
		for k := range got.DDipole {
			if !bitEqualSlice(got.DDipole[k], want.DDipole[k]) {
				t.Errorf("%s: ∂μ component %d differs from the reference", c.name, k)
			}
		}
		failed := slices.Clone(c.failed)
		slices.Sort(failed)
		if !slices.Equal(got.Dropped, want.Dropped) || !slices.Equal(got.Dropped, failed) {
			t.Errorf("%s: Dropped = %v, reference %v, failed %v", c.name, got.Dropped, want.Dropped, c.failed)
		}
		if !bitEqualSlice(got.Masses, want.Masses) {
			t.Errorf("%s: masses differ from the reference", c.name)
		}
		if c.empty && len(got.H.Val) != 0 {
			t.Errorf("%s: %d entries stored, want none", c.name, len(got.H.Val))
		}
	}
}

// BenchmarkAssemble: one assembly of wb-resume's 81-atom box (195
// fragments), fragment data made once outside the timer.
func BenchmarkAssemble(b *testing.B) {
	sys := resumeBox(b)
	dec := mustDecompose(b, fragment.QFPartitioner{Opt: fragment.DefaultOptions()}, sys)
	frags := randomFragmentData(dec, 1)
	masses := sys.Masses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssembleDegraded(dec, masses, frags, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}
