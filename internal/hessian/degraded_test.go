package hessian

import (
	"math"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/fragment"
	"qframan/internal/linalg"
)

// twoAtomDecomposition maps two single-atom fragments onto a two-atom
// system — the smallest assembly where dropping one fragment's term is
// visible in the global Hessian.
func twoAtomDecomposition() *fragment.Decomposition {
	mk := func(id, atom int) fragment.Fragment {
		return fragment.Fragment{
			ID:        id,
			Els:       []constants.Element{constants.O},
			GlobalIdx: []int{atom},
			NumReal:   1,
			Coeff:     1,
		}
	}
	return &fragment.Decomposition{Fragments: []fragment.Fragment{mk(0, 0), mk(1, 1)}}
}

func unitFragmentData(scale float64) *FragmentData {
	h := linalg.NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		h.Set(i, i, scale)
	}
	fd := &FragmentData{Hess: h}
	for c := range fd.DAlpha {
		fd.DAlpha[c] = []float64{scale, scale, scale}
	}
	for k := range fd.DDipole {
		fd.DDipole[k] = []float64{scale, scale, scale}
	}
	return fd
}

func TestAssembleDegradedDropsExactlyTheFailedTerms(t *testing.T) {
	dec := twoAtomDecomposition()
	masses := []float64{constants.O.MassAMU(), constants.O.MassAMU()}

	full, err := AssembleDegraded(dec, masses, []*FragmentData{unitFragmentData(2), unitFragmentData(3)}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := AssembleDegraded(dec, masses, []*FragmentData{unitFragmentData(2), nil}, true, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(deg.Dropped) != 1 || deg.Dropped[0] != 1 {
		t.Fatalf("Dropped = %v, want [1]", deg.Dropped)
	}
	if len(full.Dropped) != 0 {
		t.Fatalf("complete assembly reported drops: %v", full.Dropped)
	}
	// Atom 0's block must be untouched, atom 1's block empty.
	for d := 0; d < 3; d++ {
		if deg.H.At(d, d) != full.H.At(d, d) {
			t.Fatalf("surviving block entry (%d,%d) changed: %v vs %v", d, d, deg.H.At(d, d), full.H.At(d, d))
		}
		if v := deg.H.At(3+d, 3+d); v != 0 {
			t.Fatalf("dropped fragment left Hessian residue at (%d,%d): %v", 3+d, 3+d, v)
		}
		if v := deg.DAlpha[0][3+d]; v != 0 {
			t.Fatalf("dropped fragment left ∂α residue: %v", v)
		}
		if v := deg.DDipole[0][3+d]; v != 0 {
			t.Fatalf("dropped fragment left ∂μ residue: %v", v)
		}
	}
}

func TestAssembleStillRejectsSilentLoss(t *testing.T) {
	dec := twoAtomDecomposition()
	masses := []float64{constants.O.MassAMU(), constants.O.MassAMU()}
	// nil data without a matching failed entry must stay an error.
	if _, err := AssembleDegraded(dec, masses, []*FragmentData{unitFragmentData(1), nil}, false, nil); err == nil {
		t.Fatal("silent data loss assembled")
	}
	if _, err := AssembleDegraded(dec, masses, []*FragmentData{unitFragmentData(1), nil}, false, []int{0}); err == nil {
		t.Fatal("nil data for fragment 1 allowed by failed=[0]")
	}
	if _, err := AssembleDegraded(dec, masses, []*FragmentData{unitFragmentData(1), nil}, false, []int{5}); err == nil {
		t.Fatal("out-of-range failed index accepted")
	}
}

func TestValidateCatchesNonFinite(t *testing.T) {
	if err := (*FragmentData)(nil).Validate(); err != nil {
		t.Fatal("nil data must validate (test fakes omit everything)")
	}
	if err := (&FragmentData{}).Validate(); err != nil {
		t.Fatal("empty data must validate")
	}
	fd := unitFragmentData(1)
	if err := fd.Validate(); err != nil {
		t.Fatalf("healthy data rejected: %v", err)
	}
	fd.Hess.Set(1, 2, math.NaN())
	if err := fd.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN Hessian not caught: %v", err)
	}
	fd = unitFragmentData(1)
	fd.DAlpha[3][1] = math.Inf(1)
	if err := fd.Validate(); err == nil {
		t.Fatal("Inf ∂α not caught")
	}
	fd = unitFragmentData(1)
	fd.DDipole[2][0] = math.NaN()
	if err := fd.Validate(); err == nil {
		t.Fatal("NaN ∂μ not caught")
	}
}
