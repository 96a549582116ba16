package structure

import (
	"math"

	"qframan/internal/constants"
	"qframan/internal/geom"
)

// Water geometry (gas-phase experimental values).
const (
	waterOH    = 0.9572 // Å
	waterAngle = 104.52 * math.Pi / 180
	// waterLatticeSpacing reproduces liquid density (~0.997 g/cm³):
	// (18.015 amu / ρ·N_A)^(1/3) ≈ 3.105 Å between molecules.
	waterLatticeSpacing = 3.105
)

// waterSite returns the three atom positions (O, H1, H2) of the water
// molecule at integer lattice site (ix,iy,iz), with a deterministic
// pseudo-random orientation and a small positional jitter derived from the
// site coordinates, so water boxes of any size are generated procedurally
// (and reproducibly) without storing state — this is what lets the
// fragment-statistics mode reach 100M+ atoms in streaming fashion.
func waterSite(ix, iy, iz int) (o, h1, h2 geom.Vec3) {
	h := siteHash(ix, iy, iz)
	// Three orientation parameters and three jitter parameters from the hash.
	u1 := float64(h&0xFFFF) / 65536.0
	u2 := float64((h>>16)&0xFFFF) / 65536.0
	u3 := float64((h>>32)&0xFFFF) / 65536.0
	j1 := (float64((h>>48)&0xFF)/256.0 - 0.5) * 0.5
	j2 := (float64((h>>56)&0xFF)/256.0 - 0.5) * 0.5
	j3 := (float64((h>>40)&0xFF)/256.0 - 0.5) * 0.5

	o = geom.V(
		(float64(ix)+0.5)*waterLatticeSpacing+j1,
		(float64(iy)+0.5)*waterLatticeSpacing+j2,
		(float64(iz)+0.5)*waterLatticeSpacing+j3,
	)
	// Random orientation: first O–H along a uniformly random direction,
	// second rotated by the water angle about a random perpendicular azimuth.
	theta := math.Acos(2*u1 - 1)
	phi := 2 * math.Pi * u2
	d1 := geom.V(math.Sin(theta)*math.Cos(phi), math.Sin(theta)*math.Sin(phi), math.Cos(theta))
	ref := geom.V(0, 0, 1)
	if math.Abs(d1.Z) > 0.9 {
		ref = geom.V(1, 0, 0)
	}
	u := d1.Cross(ref).Normalize()
	v := d1.Cross(u)
	psi := 2 * math.Pi * u3
	lat := u.Scale(math.Cos(psi)).Add(v.Scale(math.Sin(psi)))
	d2 := d1.Scale(math.Cos(waterAngle)).Add(lat.Scale(math.Sin(waterAngle)))
	h1 = o.Add(d1.Scale(waterOH))
	h2 = o.Add(d2.Scale(waterOH))
	return o, h1, h2
}

// WaterSite exposes the procedural water-molecule generator: it returns the
// O, H1, H2 positions (Å) of the lattice site (ix,iy,iz). Streaming
// consumers (100M-atom fragment statistics) call this directly instead of
// materializing a System.
func WaterSite(ix, iy, iz int) (o, h1, h2 geom.Vec3) { return waterSite(ix, iy, iz) }

// siteHash is a split-mix style integer hash of a lattice site.
func siteHash(ix, iy, iz int) uint64 {
	x := uint64(ix)*0x9E3779B97F4A7C15 ^ uint64(iy)*0xC2B2AE3D27D4EB4F ^ uint64(iz)*0x165667B19E3779F9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// BuildWaterBox builds an nx×ny×nz lattice of water molecules at liquid
// density with deterministic pseudo-random orientations, shifted by origin.
func BuildWaterBox(nx, ny, nz int, origin geom.Vec3) *System {
	sys := &System{}
	sys.Atoms = make([]Atom, 0, nx*ny*nz*3)
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				o, h1, h2 := waterSite(ix, iy, iz)
				first := len(sys.Atoms)
				sys.Atoms = append(sys.Atoms,
					Atom{El: constants.O, Pos: o.Add(origin), Name: "OW"},
					Atom{El: constants.H, Pos: h1.Add(origin), Name: "HW1"},
					Atom{El: constants.H, Pos: h2.Add(origin), Name: "HW2"},
				)
				sys.Waters = append(sys.Waters, Residue{
					Name: "HOH", First: first, Count: 3,
					N: -1, CA: -1, C: -1, O: -1,
				})
			}
		}
	}
	return sys
}

// BuildWaterDimerSystem builds n water dimers: pairs of water molecules
// 2.8 Å apart (an H-bonded O···O distance), each pair well separated from
// the others. This reproduces the paper's "water dimer" benchmark system
// whose fragments all have exactly 6 atoms.
func BuildWaterDimerSystem(n int) *System {
	sys := &System{}
	const pairSep = 12.0 // Å between dimers: outside every λ threshold
	for i := 0; i < n; i++ {
		origin := geom.V(float64(i%100)*pairSep, float64((i/100)%100)*pairSep, float64(i/10000)*pairSep)
		o1, h11, h12 := waterSite(3*i, 1, 7)
		base := geom.Vec3{}.Sub(o1).Add(origin)
		o2, h21, h22 := waterSite(3*i+1, 5, 11)
		shift2 := o1.Add(geom.V(2.8, 0, 0)).Sub(o2)
		first := len(sys.Atoms)
		sys.Atoms = append(sys.Atoms,
			Atom{El: constants.O, Pos: o1.Add(base), Name: "OW"},
			Atom{El: constants.H, Pos: h11.Add(base), Name: "HW1"},
			Atom{El: constants.H, Pos: h12.Add(base), Name: "HW2"},
		)
		sys.Waters = append(sys.Waters, Residue{Name: "HOH", First: first, Count: 3, N: -1, CA: -1, C: -1, O: -1})
		first = len(sys.Atoms)
		sys.Atoms = append(sys.Atoms,
			Atom{El: constants.O, Pos: o2.Add(shift2).Add(base), Name: "OW"},
			Atom{El: constants.H, Pos: h21.Add(shift2).Add(base), Name: "HW1"},
			Atom{El: constants.H, Pos: h22.Add(shift2).Add(base), Name: "HW2"},
		)
		sys.Waters = append(sys.Waters, Residue{Name: "HOH", First: first, Count: 3, N: -1, CA: -1, C: -1, O: -1})
	}
	return sys
}

// SolvateInWater surrounds the protein with a water box padded by pad Å on
// every side, removing waters whose oxygen lies within exclusion Å of any
// protein atom.
func SolvateInWater(protein *System, pad, exclusion float64) *System {
	lo, hi := boundingBox(protein)
	lo = lo.Sub(geom.V(pad, pad, pad))
	hi = hi.Add(geom.V(pad, pad, pad))
	nx := int(math.Ceil((hi.X - lo.X) / waterLatticeSpacing))
	ny := int(math.Ceil((hi.Y - lo.Y) / waterLatticeSpacing))
	nz := int(math.Ceil((hi.Z - lo.Z) / waterLatticeSpacing))

	// Cell list over protein atoms for exclusion tests.
	ppos := protein.Positions()
	cl := geom.NewCellList(ppos, exclusion)

	out := &System{}
	out.Atoms = append(out.Atoms, protein.Atoms...)
	out.Residues = append(out.Residues, protein.Residues...)
	out.Waters = append(out.Waters, protein.Waters...)
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				o, h1, h2 := waterSite(ix, iy, iz)
				o = o.Add(lo)
				if len(cl.Neighbors(o, -1)) > 0 {
					continue // too close to the protein
				}
				first := len(out.Atoms)
				out.Atoms = append(out.Atoms,
					Atom{El: constants.O, Pos: o, Name: "OW"},
					Atom{El: constants.H, Pos: h1.Add(lo), Name: "HW1"},
					Atom{El: constants.H, Pos: h2.Add(lo), Name: "HW2"},
				)
				out.Waters = append(out.Waters, Residue{Name: "HOH", First: first, Count: 3, N: -1, CA: -1, C: -1, O: -1})
			}
		}
	}
	return out
}

func boundingBox(s *System) (lo, hi geom.Vec3) {
	if len(s.Atoms) == 0 {
		return
	}
	lo, hi = s.Atoms[0].Pos, s.Atoms[0].Pos
	for _, a := range s.Atoms[1:] {
		lo.X = math.Min(lo.X, a.Pos.X)
		lo.Y = math.Min(lo.Y, a.Pos.Y)
		lo.Z = math.Min(lo.Z, a.Pos.Z)
		hi.X = math.Max(hi.X, a.Pos.X)
		hi.Y = math.Max(hi.Y, a.Pos.Y)
		hi.Z = math.Max(hi.Z, a.Pos.Z)
	}
	return
}
