package scf

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/basis"
	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/structure"
)

// refRebuild is the full O(n²) construction of the geometry-dependent matrices
// as every displaced model got it before DisplaceInto — every overlap, dipole
// and γ pair recomputed — kept as the reference the incremental update must
// match bit for bit.
func refRebuild(els []constants.Element, pos []geom.Vec3) (set *basis.Set, s, h0, gamma *linalg.Matrix, dip [3]*linalg.Matrix) {
	set = basis.ForAtoms(els, pos)
	s = set.OverlapMatrix()
	dip = set.DipoleMatrices()
	n := set.Size()
	h0 = linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		fi := &set.Funcs[i]
		h0.Set(i, i, fi.OnsiteE)
		for j := i + 1; j < n; j++ {
			fj := &set.Funcs[j]
			var v float64
			if fi.Atom != fj.Atom {
				v = 0.5 * wolfsbergK * (fi.OnsiteE + fj.OnsiteE) * s.At(i, j)
			}
			h0.Set(i, j, v)
			h0.Set(j, i, v)
		}
	}
	na := len(els)
	gamma = linalg.NewMatrix(na, na)
	for a := 0; a < na; a++ {
		ua := els[a].HubbardU()
		gamma.Set(a, a, ua)
		for b := a + 1; b < na; b++ {
			g := klopmanOhno(pos[a].Dist(pos[b]), ua, els[b].HubbardU())
			gamma.Set(a, b, g)
			gamma.Set(b, a, g)
		}
	}
	return set, s, h0, gamma, dip
}

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

// TestDisplaceIntoMatchesFullRebuildBitwise: for every atom × axis × sign of
// water, dimer, methane and glycine, visited in a seeded random order on one
// destination model (so each update inherits whatever the previous ones left
// behind), the moved-atom block update leaves S, D^x/y/z, H0, Γ, the overlap
// derivatives, the positions and the basis centers equal to a full rebuild at
// the displaced geometry to the last bit. Steps vary from the production 5·10⁻³ bohr to 0.3 bohr.
func TestDisplaceIntoMatchesFullRebuildBitwise(t *testing.T) {
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
		rng := rand.New(rand.NewSource(19))
		type job struct {
			atom, axis int
			delta      float64
		}
		var jobs []job
		for a := range fx.els {
			for ax := 0; ax < 3; ax++ {
				step := 5e-3
				if rng.Intn(3) == 0 {
					step = 0.3 * rng.Float64()
				}
				jobs = append(jobs, job{a, ax, step}, job{a, ax, -step})
			}
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		var dst Model
		for _, j := range jobs {
			m.DisplaceInto(&dst, j.atom, j.axis, j.delta)
			pos := append([]geom.Vec3(nil), m.Pos...)
			switch j.axis {
			case 0:
				pos[j.atom].X += j.delta
			case 1:
				pos[j.atom].Y += j.delta
			case 2:
				pos[j.atom].Z += j.delta
			}
			set, s, h0, gamma, dip := refRebuild(fx.els, pos)
			ok := bitEqualFloats(dst.S.Data, s.Data) && bitEqualFloats(dst.H0.Data, h0.Data) &&
				bitEqualFloats(dst.Gamma.Data, gamma.Data)
			for k := range dip {
				ok = ok && bitEqualFloats(dst.Dip[k].Data, dip[k].Data)
			}
			n := set.Size()
			for i := range set.Funcs {
				for j := i + 1; j < n; j++ {
					var want geom.Vec3
					if set.Funcs[i].Atom != set.Funcs[j].Atom {
						want = basis.OverlapDeriv(&set.Funcs[i], &set.Funcs[j])
					}
					ok = ok && dst.dS[i*n+j] == want
				}
			}
			for a := range pos {
				ok = ok && dst.Pos[a] == pos[a]
			}
			for i := range set.Funcs {
				ok = ok && dst.Basis.Funcs[i] == set.Funcs[i]
			}
			if !ok {
				t.Fatalf("%s: atom %d axis %d delta %g: incremental update differs from the full rebuild", fx.name, j.atom, j.axis, j.delta)
			}
		}
		// The reference model was only read.
		_, s, h0, _, _ := refRebuild(fx.els, m.Pos)
		if !bitEqualFloats(m.S.Data, s.Data) || !bitEqualFloats(m.H0.Data, h0.Data) {
			t.Fatalf("%s: DisplaceInto wrote to its source model", fx.name)
		}
	}
}
