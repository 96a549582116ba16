// Package structure models molecular systems — atoms, residues, proteins,
// and water boxes — and provides the synthetic structure generators that
// stand in for the paper's SARS-CoV-2 spike protein (PDB 7DF3) and its
// 101,299,008-atom explicit water box (§VI-A). The generators reproduce the
// statistical properties that drive the paper's algorithms: residue/fragment
// size distributions, covalent topology, and solvent pair densities.
package structure

import (
	"fmt"

	"qframan/internal/constants"
	"qframan/internal/geom"
)

// Atom is a single atom with positions in ångströms.
type Atom struct {
	El   constants.Element
	Pos  geom.Vec3
	Name string // PDB-style atom name, e.g. "CA", "HB1", "OW"
}

// Residue is a contiguous run of atoms in a System: either an amino-acid
// residue of a protein chain or a single water molecule.
type Residue struct {
	Name  string // three-letter amino-acid code, or "HOH" for water
	First int    // index of the first atom in System.Atoms
	Count int    // number of atoms
	// Chain identifies the protein chain the residue belongs to; the
	// paper's spike protein is a trimer, and peptide-bond cutting operates
	// per chain.
	Chain int

	// Backbone atom indices (absolute into System.Atoms); −1 for water.
	N, CA, C, O int
}

// IsWater reports whether the residue is a water molecule.
func (r Residue) IsWater() bool { return r.Name == "HOH" }

// System is a molecular system: an optional protein chain (Residues, in
// chain order), any number of water molecules, and any number of generic
// non-protein molecules (ligands, polymers, …) that only the graph
// partitioner can fragment.
type System struct {
	Atoms    []Atom
	Residues []Residue // protein residues in chain order
	Waters   []Residue
	// Molecules holds generic molecules: contiguous atom runs with no
	// backbone annotation (N/CA/C/O are −1). The QF partitioner rejects
	// systems containing them; the graph partitioner infers their covalent
	// topology from geometry (see FRAGMENTATION.md).
	Molecules []Residue
}

// NumAtoms returns the total atom count.
func (s *System) NumAtoms() int { return len(s.Atoms) }

func (s *System) Positions() []geom.Vec3 {
	out := make([]geom.Vec3, len(s.Atoms))
	for i, a := range s.Atoms {
		out[i] = a.Pos
	}
	return out
}

// Masses returns per-atom masses in amu.
func (s *System) Masses() []float64 {
	out := make([]float64, len(s.Atoms))
	for i, a := range s.Atoms {
		out[i] = a.El.MassAMU()
	}
	return out
}

// bondScale is the covalent-bond detection tolerance: two atoms are bonded
// when their distance is below bondScale·(rᵢ+rⱼ) with r the covalent radii.
const bondScale = 1.30

// maxBondLength bounds the neighbor search; generous for S–S.
const maxBondLength = 2.8

// SubsetBonds detects covalent bonds among an explicit atom set (positions in
// Å, elements parallel). The fragment engine uses this on extracted
// fragments, whose atoms no longer live in a System.
func SubsetBonds(els []constants.Element, pos []geom.Vec3) [][2]int {
	cl := geom.NewCellList(pos, maxBondLength)
	var bonds [][2]int
	cl.ForEachPair(func(i, j int, d2 float64) {
		limit := bondScale * (els[i].CovalentRadius() + els[j].CovalentRadius())
		if d2 <= limit*limit {
			bonds = append(bonds, [2]int{i, j})
		}
	})
	return bonds
}

// Validate performs internal-consistency checks: residues must reference
// valid contiguous atom ranges and backbone indices must point at the right
// elements. It returns the first problem found, or nil.
func (s *System) Validate() error {
	check := func(r Residue, what string) error {
		if r.First < 0 || r.Count <= 0 || r.First+r.Count > len(s.Atoms) {
			return fmt.Errorf("structure: %s %q has invalid atom range [%d,%d)", what, r.Name, r.First, r.First+r.Count)
		}
		if r.IsWater() {
			return nil
		}
		for _, spec := range []struct {
			idx  int
			el   constants.Element
			name string
		}{{r.N, constants.N, "N"}, {r.CA, constants.C, "CA"}, {r.C, constants.C, "C"}, {r.O, constants.O, "O"}} {
			if spec.idx < r.First || spec.idx >= r.First+r.Count {
				return fmt.Errorf("structure: %s %q backbone %s index %d outside range", what, r.Name, spec.name, spec.idx)
			}
			if s.Atoms[spec.idx].El != spec.el {
				return fmt.Errorf("structure: %s %q backbone %s has element %v", what, r.Name, spec.name, s.Atoms[spec.idx].El)
			}
		}
		return nil
	}
	for _, r := range s.Residues {
		if r.IsWater() {
			return fmt.Errorf("structure: water residue in protein chain")
		}
		if err := check(r, "residue"); err != nil {
			return err
		}
	}
	for _, w := range s.Waters {
		if !w.IsWater() {
			return fmt.Errorf("structure: non-water residue %q in Waters", w.Name)
		}
		if err := check(w, "water"); err != nil {
			return err
		}
		if w.Count != 3 {
			return fmt.Errorf("structure: water with %d atoms", w.Count)
		}
	}
	for _, m := range s.Molecules {
		if m.IsWater() {
			return fmt.Errorf("structure: water residue in Molecules")
		}
		if IsAminoAcidName(m.Name) {
			return fmt.Errorf("structure: amino-acid residue %q in Molecules", m.Name)
		}
		if m.First < 0 || m.Count <= 0 || m.First+m.Count > len(s.Atoms) {
			return fmt.Errorf("structure: molecule %q has invalid atom range [%d,%d)", m.Name, m.First, m.First+m.Count)
		}
	}
	return nil
}

// Merge appends other's atoms, residues, and waters into s, offsetting all
// indices. Used to solvate a protein with a water box.
func (s *System) Merge(other *System) {
	off := len(s.Atoms)
	s.Atoms = append(s.Atoms, other.Atoms...)
	shift := func(r Residue) Residue {
		r.First += off
		for _, idx := range []*int{&r.N, &r.CA, &r.C, &r.O} {
			if *idx >= 0 {
				*idx += off
			}
		}
		return r
	}
	for _, r := range other.Residues {
		s.Residues = append(s.Residues, shift(r))
	}
	for _, w := range other.Waters {
		s.Waters = append(s.Waters, shift(w))
	}
	for _, m := range other.Molecules {
		s.Molecules = append(s.Molecules, shift(m))
	}
}
