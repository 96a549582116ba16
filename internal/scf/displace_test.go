package scf

import (
	"math"
	"testing"

	"qframan/internal/basis"
	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/structure"
)

func bitEqualFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func systemGeometry(sys *structure.System) ([]constants.Element, []geom.Vec3) {
	els := make([]constants.Element, len(sys.Atoms))
	pos := make([]geom.Vec3, len(sys.Atoms))
	for i, a := range sys.Atoms {
		els[i], pos[i] = a.El, a.Pos
	}
	return els, pos
}

func dimerGeometry() ([]constants.Element, []geom.Vec3) {
	return systemGeometry(structure.BuildWaterDimerSystem(1))
}

func glycineGeometry(t testing.TB) ([]constants.Element, []geom.Vec3) {
	t.Helper()
	sys, err := structure.BuildProtein("G")
	if err != nil {
		t.Fatal(err)
	}
	return systemGeometry(sys)
}

// TestDisplacedLeavesItsSourceUnchanged: for every atom × axis × sign of
// water, dimer, methane and glycine, Displaced moves exactly one coordinate of
// its copy and leaves the source model's positions, basis centers, S,
// D^x/y/z, H0, Γ and overlap derivatives as they were, to the last bit — the
// displacement loop's jobs all read one reference model at once.
func TestDisplacedLeavesItsSourceUnchanged(t *testing.T) {
	gly, glyPos := glycineGeometry(t)
	dim, dimPos := dimerGeometry()
	wat, watPos := waterGeometry()
	met, metPos := methane()
	for _, fx := range []struct {
		name string
		els  []constants.Element
		pos  []geom.Vec3
	}{{"water", wat, watPos}, {"dimer", dim, dimPos}, {"methane", met, metPos}, {"glycine", gly, glyPos}} {
		m, err := NewModel(fx.els, fx.pos)
		if err != nil {
			t.Fatal(err)
		}
		pos := append([]geom.Vec3(nil), m.Pos...)
		funcs := append([]basis.Func(nil), m.Basis.Funcs...)
		dS := append([]geom.Vec3(nil), m.dS...)
		mats := []*linalg.Matrix{m.S, m.H0, m.Gamma, m.Dip[0], m.Dip[1], m.Dip[2]}
		var data [][]float64
		for _, a := range mats {
			data = append(data, append([]float64(nil), a.Data...))
		}
		for a := range fx.els {
			for axis := 0; axis < 3; axis++ {
				for _, delta := range []float64{5e-3, -5e-3} {
					want := append([]geom.Vec3(nil), pos...)
					*[3]*float64{&want[a].X, &want[a].Y, &want[a].Z}[axis] += delta
					md := m.Displaced(a, axis, delta)
					for b := range want {
						if md.Pos[b] != want[b] {
							t.Errorf("%s: atom %d axis %d delta %g: atom %d at %v, want %v", fx.name, a, axis, delta, b, md.Pos[b], want[b])
						}
					}
				}
			}
		}
		ok := len(m.dS) == len(dS)
		for a := range pos {
			ok = ok && m.Pos[a] == pos[a]
		}
		for i := range funcs {
			ok = ok && m.Basis.Funcs[i] == funcs[i]
		}
		for i := range dS {
			ok = ok && m.dS[i] == dS[i]
		}
		for k, a := range mats {
			ok = ok && bitEqualFloats(a.Data, data[k])
		}
		if !ok {
			t.Fatalf("%s: Displaced wrote to its source model", fx.name)
		}
	}
}
