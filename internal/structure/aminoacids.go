package structure

import (
	"math"

	"qframan/internal/constants"
	"qframan/internal/geom"
)

// scAtom describes one side-chain heavy atom in an amino-acid template as a
// node in a tree rooted at CA: Parent is the index of the parent side-chain
// atom (−1 means bonded directly to CA) and NH is the number of hydrogens to
// attach.
type scAtom struct {
	El     constants.Element
	Parent int
	NH     int
	Name   string
}

// aaTemplate is an amino-acid template. Geometry is generated, not stored:
// the builder places the backbone in an extended strand and grows the
// side-chain tree with tetrahedral angles and realistic bond lengths.
//
// Aromatic rings (PHE/TYR/TRP/HIS) are approximated by acyclic trees with the
// correct atom counts: the QF algorithm and the load balancer care about
// fragment sizes and covalent topology, not aromaticity (see DESIGN.md §2).
type aaTemplate struct {
	Name    string
	Code    byte
	SC      []scAtom
	ExtraHA bool // glycine's second Hα
}

var aminoAcids = []aaTemplate{
	{Name: "GLY", Code: 'G', ExtraHA: true},
	{Name: "ALA", Code: 'A', SC: []scAtom{{constants.C, -1, 3, "CB"}}},
	{Name: "SER", Code: 'S', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.O, 0, 1, "OG"}}},
	{Name: "CYS", Code: 'C', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.S, 0, 1, "SG"}}},
	{Name: "THR", Code: 'T', SC: []scAtom{{constants.C, -1, 1, "CB"}, {constants.O, 0, 1, "OG1"}, {constants.C, 0, 3, "CG2"}}},
	{Name: "VAL", Code: 'V', SC: []scAtom{{constants.C, -1, 1, "CB"}, {constants.C, 0, 3, "CG1"}, {constants.C, 0, 3, "CG2"}}},
	{Name: "PRO", Code: 'P', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 2, "CG"}, {constants.C, 1, 3, "CD"}}},
	{Name: "LEU", Code: 'L', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 1, "CG"}, {constants.C, 1, 3, "CD1"}, {constants.C, 1, 3, "CD2"}}},
	{Name: "ILE", Code: 'I', SC: []scAtom{{constants.C, -1, 1, "CB"}, {constants.C, 0, 2, "CG1"}, {constants.C, 0, 3, "CG2"}, {constants.C, 1, 3, "CD1"}}},
	{Name: "ASN", Code: 'N', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 0, "CG"}, {constants.O, 1, 0, "OD1"}, {constants.N, 1, 2, "ND2"}}},
	{Name: "ASP", Code: 'D', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 0, "CG"}, {constants.O, 1, 0, "OD1"}, {constants.O, 1, 1, "OD2"}}},
	{Name: "GLN", Code: 'Q', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 2, "CG"}, {constants.C, 1, 0, "CD"}, {constants.O, 2, 0, "OE1"}, {constants.N, 2, 2, "NE2"}}},
	{Name: "GLU", Code: 'E', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 2, "CG"}, {constants.C, 1, 0, "CD"}, {constants.O, 2, 0, "OE1"}, {constants.O, 2, 1, "OE2"}}},
	{Name: "LYS", Code: 'K', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 2, "CG"}, {constants.C, 1, 2, "CD"}, {constants.C, 2, 2, "CE"}, {constants.N, 3, 2, "NZ"}}},
	{Name: "ARG", Code: 'R', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 2, "CG"}, {constants.C, 1, 2, "CD"}, {constants.N, 2, 1, "NE"}, {constants.C, 3, 0, "CZ"}, {constants.N, 4, 1, "NH1"}, {constants.N, 4, 2, "NH2"}}},
	{Name: "HIS", Code: 'H', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 0, "CG"}, {constants.N, 1, 1, "ND1"}, {constants.C, 1, 1, "CD2"}, {constants.C, 2, 2, "CE1"}, {constants.N, 3, 1, "NE2"}}},
	{Name: "PHE", Code: 'F', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 0, "CG"}, {constants.C, 1, 1, "CD1"}, {constants.C, 1, 1, "CD2"}, {constants.C, 2, 1, "CE1"}, {constants.C, 3, 2, "CE2"}, {constants.C, 4, 2, "CZ"}}},
	{Name: "TYR", Code: 'Y', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 0, "CG"}, {constants.C, 1, 1, "CD1"}, {constants.C, 1, 1, "CD2"}, {constants.C, 2, 1, "CE1"}, {constants.C, 3, 2, "CE2"}, {constants.C, 4, 1, "CZ"}, {constants.O, 6, 1, "OH"}}},
	// TRP's indole is laid out as one long spine (CB…CH2) with three
	// depth-1 branches (NE1, CE3, CZ3) so no subtree drifts more than one
	// lane from the residue's plane.
	{Name: "TRP", Code: 'W', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 1, "CG"}, {constants.C, 1, 0, "CD1"}, {constants.C, 2, 0, "CD2"}, {constants.N, 2, 2, "NE1"}, {constants.C, 3, 0, "CE2"}, {constants.C, 3, 2, "CE3"}, {constants.C, 5, 1, "CZ2"}, {constants.C, 5, 2, "CZ3"}, {constants.C, 7, 2, "CH2"}}},
	{Name: "MET", Code: 'M', SC: []scAtom{{constants.C, -1, 2, "CB"}, {constants.C, 0, 2, "CG"}, {constants.S, 1, 0, "SD"}, {constants.C, 2, 3, "CE"}}},
}

var aaByCode = func() map[byte]*aaTemplate {
	m := make(map[byte]*aaTemplate, len(aminoAcids))
	for i := range aminoAcids {
		m[aminoAcids[i].Code] = &aminoAcids[i]
	}
	return m
}()

var aaByName = func() map[string]bool {
	m := make(map[string]bool, len(aminoAcids))
	for i := range aminoAcids {
		m[aminoAcids[i].Name] = true
	}
	return m
}()

// IsAminoAcidName reports whether the three-letter residue name belongs to
// one of the 20 amino-acid templates. The structure reader uses it to decide
// whether an input residue is a protein residue (backbone atoms required) or
// a generic molecule (graph-partitioner territory).
func IsAminoAcidName(name string) bool { return aaByName[name] }

// Bond lengths in Å by element pair (order-independent).
func bondLength(a, b constants.Element) float64 {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == constants.H && b == constants.H:
		return 0.74
	case a == constants.H && b == constants.C:
		return 1.09
	case a == constants.H && b == constants.N:
		return 1.01
	case a == constants.H && b == constants.O:
		return 0.96
	case a == constants.H && b == constants.S:
		return 1.34
	case a == constants.C && b == constants.C:
		return 1.52
	case a == constants.C && b == constants.N:
		return 1.47
	case a == constants.C && b == constants.O:
		return 1.41
	case a == constants.C && b == constants.S:
		return 1.81
	case a == constants.N && b == constants.O:
		return 1.40
	case a == constants.O && b == constants.O:
		return 1.45
	}
	return 1.6
}

const (
	tetCos = -1.0 / 3.0 // cos(109.47°)
)

// tetrahedralDirs returns three unit directions making the tetrahedral angle
// (109.47°) with −dIn, the bond arriving at this atom. The azimuthal phase is
// chosen so that slot 0 points maximally along `grow` (the growth direction,
// away from the backbone): a chain that always continues through slot 0 then
// traces an exact all-trans zig-zag confined to the plane spanned by dIn and
// grow, while slots 1 and 2 branch out of that plane symmetrically. This
// keeps side chains in their own residue's lane and prevents steric clashes
// with neighboring residues.
func tetrahedralDirs(dIn, grow geom.Vec3) [3]geom.Vec3 {
	// Orthonormal frame (u, v) perpendicular to dIn.
	ref := geom.V(0, 0, 1)
	if math.Abs(dIn.Z) > 0.9 {
		ref = geom.V(1, 0, 0)
	}
	u := dIn.Cross(ref).Normalize()
	v := dIn.Cross(u)
	// Azimuth maximizing the component of the slot direction along grow.
	phase := math.Atan2(grow.Dot(v), grow.Dot(u))
	c := -tetCos // cos(70.53°) = 1/3
	s := math.Sqrt(1 - c*c)
	var out [3]geom.Vec3
	for k := 0; k < 3; k++ {
		phi := phase + 2*math.Pi*float64(k)/3
		lat := u.Scale(math.Cos(phi)).Add(v.Scale(math.Sin(phi)))
		out[k] = dIn.Scale(c).Add(lat.Scale(s))
	}
	return out
}

// buildResidue appends one residue's atoms to atoms. nPos is the position of
// the backbone nitrogen; xDir the chain direction; side = ±1 selects which
// side of the backbone the side chain grows toward. nTerm/cTerm add terminal
// hydrogens/oxygen. It returns the Residue descriptor.
func buildResidue(atoms *[]Atom, t *aaTemplate, nPos geom.Vec3, side float64, nTerm, cTerm bool) Residue {
	first := len(*atoms)
	add := func(el constants.Element, pos geom.Vec3, name string) int {
		*atoms = append(*atoms, Atom{El: el, Pos: pos, Name: name})
		return len(*atoms) - 1
	}

	// Extended backbone in the xz plane; chain advances +x by 3.8 Å/residue.
	// Backbone decorations are side-aware: the carbonyl O leans toward the
	// residue's own side-chain face (clear at backbone height, since the
	// side chain rises in z) and the amide H toward the opposite face, so
	// neither can meet the −x-drifting branches of the following residue.
	caPos := nPos.Add(geom.V(1.25, 0, 0.75))
	cPos := nPos.Add(geom.V(2.50, 0, 0))
	oDir := geom.V(0, 0.73*side, -0.684).Normalize()
	oPos := cPos.Add(oDir.Scale(1.23))
	hnDir := geom.V(0, -0.9*side, 0.44).Normalize()
	hnPos := nPos.Add(hnDir.Scale(1.01))

	iN := add(constants.N, nPos, "N")
	add(constants.H, hnPos, "H")
	if nTerm {
		// Second amine hydrogen on the N-terminus.
		h2 := nPos.Add(geom.V(-0.6, 0.75*side, 0.3).Normalize().Scale(1.01))
		add(constants.H, h2, "H2")
	}
	iCA := add(constants.C, caPos, "CA")
	haDir := geom.V(0, -side, 0.35).Normalize()
	add(constants.H, caPos.Add(haDir.Scale(1.09)), "HA")
	if t.ExtraHA {
		ha2Dir := geom.V(0, side, 0.35).Normalize()
		add(constants.H, caPos.Add(ha2Dir.Scale(1.09)), "HA2")
	}
	iC := add(constants.C, cPos, "C")
	iO := add(constants.O, oPos, "O")
	if cTerm {
		// Carboxyl OXT + its hydrogen on the C-terminus.
		oxtDir := geom.V(0.35, -0.8*side, -0.48).Normalize()
		oxt := cPos.Add(oxtDir.Scale(1.34))
		add(constants.O, oxt, "OXT")
		add(constants.H, oxt.Add(geom.V(0.4, -0.75*side, 0.53).Normalize().Scale(0.96)), "HXT")
	}

	// Grow the side-chain tree from CA with tetrahedral geometry. Each
	// placed atom owns a set of three tetrahedral slots (directions at
	// 109.47° from its incoming bond); children consume slots in placement
	// order and hydrogens fill the remainder, so no two bonds from the same
	// atom can come closer than 109.47°.
	if len(t.SC) > 0 {
		type placed struct {
			pos   geom.Vec3
			grow  geom.Vec3 // subtree growth direction (defines the lane)
			slots [3]geom.Vec3
			taken [3]bool
		}
		nodes := make([]placed, len(t.SC))
		rootDir := geom.V(0, side, 0.35).Normalize()
		rootGrow := geom.V(0, side, 0)
		for i, a := range t.SC {
			var pos, dir, grow geom.Vec3
			if a.Parent < 0 {
				dir = rootDir
				grow = rootGrow
				pos = caPos.Add(dir.Scale(bondLength(constants.C, a.El)))
			} else {
				p := &nodes[a.Parent]
				if !p.taken[0] {
					// Spine continuation: slot 0, stay in the parent's lane.
					p.taken[0] = true
					dir = p.slots[0]
					grow = p.grow
				} else {
					// Branch: of the two out-of-lane slots prefer the one
					// pointing toward −x (the previous residue's empty
					// flank, since side chains alternate faces); the
					// subtree then grows outward along its own lane so
					// sibling subtrees diverge instead of re-converging.
					k := 1
					if !p.taken[1] && !p.taken[2] && p.slots[2].X < p.slots[1].X {
						k = 2
					} else if p.taken[1] {
						k = 2
					}
					p.taken[k] = true
					dir = p.slots[k]
					grow = p.grow.Add(dir).Normalize()
				}
				pos = p.pos.Add(dir.Scale(bondLength(t.SC[a.Parent].El, a.El)))
			}
			nodes[i] = placed{pos: pos, grow: grow, slots: tetrahedralDirs(dir, grow)}
			add(a.El, pos, a.Name)
		}
		for i, a := range t.SC {
			if a.NH > 3 {
				panic("structure: more than 3 hydrogens on one heavy atom")
			}
			n := &nodes[i]
			hl := bondLength(a.El, constants.H)
			h := 0
			for k := 0; k < 3 && h < a.NH; k++ {
				if n.taken[k] {
					continue
				}
				n.taken[k] = true
				add(constants.H, n.pos.Add(n.slots[k].Scale(hl)), a.Name+"H")
				h++
			}
			if h < a.NH {
				panic("structure: template exceeds tetrahedral valence")
			}
		}
	}

	return Residue{
		Name:  t.Name,
		First: first,
		Count: len(*atoms) - first,
		N:     iN, CA: iCA, C: iC, O: iO,
	}
}
