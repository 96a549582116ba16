package core

import (
	"math"
	"testing"

	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/sched"
	"qframan/internal/structure"
)

// asymmetricPairs counts the stored off-diagonal pairs (i < j) of h and how
// many of them differ from their mirror in any bit.
func asymmetricPairs(h *hessian.Sparse) (pairs, asym int) {
	for i := 0; i < h.Dim(); i++ {
		for k := h.RowPtr[i]; k < h.RowPtr[i+1]; k++ {
			if j := int(h.Col[k]); j > i {
				pairs++
				if math.Float64bits(h.Val[k]) != math.Float64bits(h.At(j, i)) {
					asym++
				}
			}
		}
	}
	return pairs, asym
}

// TestOperatorSymmetricBitForBit: every fragment Hessian sched.Run hands
// back, rotated into its member's own frame, and the assembled global
// operator are symmetric to the last bit — on rigid and jittered water,
// where records pass non-identity rotations, and on a peptide whose
// fragments carry cap hydrogens, under both partitioners. The exact route
// solves the operator as assembled (no re-symmetrization), so it and the
// quadrature see the same matrix.
func TestOperatorSymmetricBitForBit(t *testing.T) {
	box := structure.BuildWaterBox(2, 2, 2, geom.Vec3{})
	frames := structure.PerturbedTrajectory(box, structure.PerturbOptions{Frames: 2, MoveFrac: 1, Jitter: 0.15, Seed: 1})
	jittered, err := structure.ApplyFrame(box, frames[1])
	if err != nil {
		t.Fatal(err)
	}
	pep, err := structure.BuildProtein("GAGA")
	if err != nil {
		t.Fatal(err)
	}
	gOpt := fragment.DefaultGraphOptions()
	gOpt.TargetAtoms = 12
	systems := []struct {
		name string
		sys  *structure.System
	}{
		{"water dimer", structure.BuildWaterDimerSystem(1)},
		{"2x2x2 box", box},
		{"2x2x2 box jittered 0.15 Å", jittered},
		{"GAGA peptide", pep},
	}
	for _, tc := range systems {
		for _, part := range []fragment.Partitioner{fragment.QFPartitioner{Opt: fragment.DefaultOptions()}, fragment.GraphPartitioner{Opt: gOpt}} {
			dec, err := part.Partition(tc.sys)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, part.Name(), err)
			}
			datas, _, err := sched.Run(dec, DefaultConfig().Sched)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, part.Name(), err)
			}
			for fi, d := range datas {
				if err := d.CheckSymmetric(); err != nil {
					t.Errorf("%s/%s: fragment %d: %v", tc.name, part.Name(), fi, err)
				}
			}
			g, err := hessian.AssembleDegraded(dec, tc.sys.Masses(), datas, true, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, part.Name(), err)
			}
			pairs, asym := asymmetricPairs(g.H)
			t.Logf("%s/%s: %d fragments, Global.H %d of %d mirrored pairs differ", tc.name, part.Name(), len(dec.Fragments), asym, pairs)
			if asym != 0 {
				t.Errorf("%s/%s: Global.H: %d of %d mirrored pairs differ", tc.name, part.Name(), asym, pairs)
			}
		}
	}
}
