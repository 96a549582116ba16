// Package fragment implements the quantum-fragmentation (QF) algorithm of
// the paper (Eq. 1): a protein is cut through every peptide bond except the
// first and the last, each naked residue is dressed with its two conjugate
// caps, concap fragments are subtracted to remove double counting, every
// water molecule is a one-body fragment, and two-body corrections
// ("generalized concaps") are added for spatially close residue–residue,
// residue–water, and water–water pairs within a distance threshold λ.
//
// The central invariant — verified by the test suite as a property test — is
// that the signed fragment combination covers every real atom exactly once:
// for any atom a, Σ_f coeff(f)·[a ∈ f] = 1. This is what makes assembling
// per-fragment Hessians and polarizability derivatives into whole-system
// quantities (the paper's E⁽²⁾ and ∂α/∂ξ) consistent.
package fragment

import (
	"fmt"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/structure"
)

// Kind labels the role of a fragment in the Eq. 1 combination.
type Kind uint8

const (
	// KindResidue is a capped naked-residue fragment Cap*_{k-1} a_k Cap_{k+1}.
	KindResidue Kind = iota
	// KindConcap is a subtracted conjugate-cap pair Cap*_k Cap_{k+1}.
	KindConcap
	// KindWater is a one-body water fragment.
	KindWater
	// KindPairRR is a residue–residue generalized-concap dimer.
	KindPairRR
	// KindMonoRR is a subtracted monomer of a residue–residue pair.
	KindMonoRR
	// KindPairRW is a residue–water dimer.
	KindPairRW
	// KindMonoRW is a subtracted monomer of a residue–water pair.
	KindMonoRW
	// KindPairWW is a water–water dimer.
	KindPairWW
	// KindMonoWW is a subtracted water monomer of a water–water pair.
	KindMonoWW
	// KindPart is a connected part of the graph partitioner's
	// severable-bond forest (+1; the graph analogue of KindResidue).
	KindPart
	// KindPairBond is a dimer of two parts joined by a severed bond (+1) —
	// the graph generalization of the conjugate-cap correction.
	KindPairBond
	// KindMonoBond is a subtracted monomer of a bonded part dimer (−1).
	KindMonoBond
	// KindPairSpace is a spatial λ-sphere dimer of two parts (+1) — the
	// graph generalization of the QF generalized concap.
	KindPairSpace
	// KindMonoSpace is a subtracted monomer of a spatial part dimer (−1).
	KindMonoSpace
	numKinds
)

// String returns a short label for the kind.
func (k Kind) String() string {
	switch k {
	case KindResidue:
		return "residue"
	case KindConcap:
		return "concap"
	case KindWater:
		return "water"
	case KindPairRR:
		return "pair-rr"
	case KindMonoRR:
		return "mono-rr"
	case KindPairRW:
		return "pair-rw"
	case KindMonoRW:
		return "mono-rw"
	case KindPairWW:
		return "pair-ww"
	case KindMonoWW:
		return "mono-ww"
	case KindPart:
		return "part"
	case KindPairBond:
		return "pair-bond"
	case KindMonoBond:
		return "mono-bond"
	case KindPairSpace:
		return "pair-space"
	case KindMonoSpace:
		return "mono-space"
	}
	return "unknown"
}

// Fragment is one term of the Eq. 1 combination: a small molecular system
// extracted from the parent System, with hydrogen caps terminating every cut
// covalent bond.
type Fragment struct {
	ID    int
	Kind  Kind
	Coeff float64 // +1 or −1 in the combination

	// Els and Pos are the fragment's atoms (positions in Å). Cap hydrogens
	// come last.
	Els []constants.Element
	Pos []geom.Vec3

	// GlobalIdx maps local atom index → atom index in the parent system;
	// −1 for cap hydrogens (their contributions cancel in the combination
	// and are dropped at assembly).
	GlobalIdx []int

	// NumReal is the number of non-cap atoms (== count of GlobalIdx ≥ 0,
	// stored for convenience; cap hydrogens are the NumAtoms−NumReal tail).
	NumReal int
}

// NumAtoms returns the total atom count including cap hydrogens.
func (f *Fragment) NumAtoms() int { return len(f.Els) }

// Options configures the decomposition.
type Options struct {
	// LambdaRR/RW/WW are the distance thresholds (Å) for the two-body
	// terms; the paper uses 4 Å for all three.
	LambdaRR float64
	LambdaRW float64
	LambdaWW float64
	// MinSeqSeparation is the minimum |i−j| in sequence for a
	// residue–residue pair to count as "sequentially non-neighboring";
	// pairs closer in sequence are already covered by the capped fragments.
	MinSeqSeparation int
}

// DefaultOptions returns the paper's settings: λ = 4 Å everywhere.
func DefaultOptions() Options {
	return Options{LambdaRR: 4, LambdaRW: 4, LambdaWW: 4, MinSeqSeparation: 3}
}

// Stats summarizes a decomposition, reproducing the quantities the paper
// reports in §VI-A (fragment counts, concaps, generalized concaps, pair
// counts, size range).
type Stats struct {
	// Partitioner is the engine that produced the decomposition
	// ("qf" or "graph").
	Partitioner         string
	NumResidueFragments int
	NumConcaps          int
	NumWaterFragments   int
	NumRRPairs          int // generalized concaps
	NumRWPairs          int
	NumWWPairs          int
	// Graph-partitioner counters (zero for QF decompositions).
	NumParts        int // +1 parts of the severable-bond forest
	NumCutBonds     int // severed bonds (each capped on both sides)
	NumBondedPairs  int // dimer corrections across severed bonds
	NumSpatialPairs int // λ-sphere part dimers
	// MinAtoms/MaxAtoms bound the sizes over all emitted fragments
	// (dimers included).
	MinAtoms, MaxAtoms int
	TotalFragments     int
	// SizeHistogram[n] counts fragments with n atoms.
	SizeHistogram map[int]int
}

// Decomposition is the full output of the QF algorithm.
type Decomposition struct {
	Fragments []Fragment
	Stats     Stats
}

// Decompose runs the QF algorithm on a system. Systems containing generic
// molecules are rejected: the QF chemistry rules know only peptide chains
// and water, so such systems need the graph partitioner (FRAGMENTATION.md).
func Decompose(sys *structure.System, opt Options) (*Decomposition, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if n := len(sys.Molecules); n > 0 {
		return nil, fmt.Errorf("fragment: the QF partitioner cannot fragment %d generic molecule(s); use the graph partitioner (-partitioner graph)", n)
	}
	if opt.MinSeqSeparation < 2 {
		return nil, fmt.Errorf("fragment: MinSeqSeparation must be ≥ 2 (neighbors are covered by caps)")
	}
	d := &Decomposition{}
	d.Stats.Partitioner = "qf"
	ex := newExtractor(sys)

	// 1. Capped residue fragments and concaps, independently per protein
	// chain (the paper's spike protein is a trimer: 3,180 residues in 3
	// chains yield 3·(n_c−3) = 3,171 conjugate caps).
	for _, chain := range chainRanges(sys) {
		nc := chain.hi - chain.lo + 1
		pieces := chainPieces(nc)
		for p, piece := range pieces {
			resSet := make([]int, 0, piece.hi-piece.lo+3)
			if p > 0 {
				resSet = append(resSet, chain.lo+pieces[p-1].hi)
			}
			for r := piece.lo; r <= piece.hi; r++ {
				resSet = append(resSet, chain.lo+r)
			}
			if p < len(pieces)-1 {
				resSet = append(resSet, chain.lo+pieces[p+1].lo)
			}
			d.add(ex.extract(KindResidue, +1, resSet, nil))
			d.Stats.NumResidueFragments++
		}
		// Concaps: one per cut; cut c sits between residues c+1 and c+2
		// of the chain.
		if nc >= 4 {
			for c := 0; c <= nc-4; c++ {
				d.add(ex.extract(KindConcap, -1, []int{chain.lo + c + 1, chain.lo + c + 2}, nil))
				d.Stats.NumConcaps++
			}
		}
	}

	// 2. One-body water fragments.
	for w := range sys.Waters {
		d.add(ex.extract(KindWater, +1, nil, []int{w}))
		d.Stats.NumWaterFragments++
	}

	// 3. Two-body generalized concaps and solvent pairs.
	pairs := findPairs(sys, opt)
	for _, pr := range pairs.rr {
		d.add(ex.extract(KindPairRR, +1, []int{pr[0], pr[1]}, nil))
		d.add(ex.extract(KindMonoRR, -1, []int{pr[0]}, nil))
		d.add(ex.extract(KindMonoRR, -1, []int{pr[1]}, nil))
		d.Stats.NumRRPairs++
	}
	for _, pr := range pairs.rw {
		d.add(ex.extract(KindPairRW, +1, []int{pr[0]}, []int{pr[1]}))
		d.add(ex.extract(KindMonoRW, -1, []int{pr[0]}, nil))
		d.add(ex.extract(KindMonoRW, -1, nil, []int{pr[1]}))
		d.Stats.NumRWPairs++
	}
	for _, pr := range pairs.ww {
		d.add(ex.extract(KindPairWW, +1, nil, []int{pr[0], pr[1]}))
		d.add(ex.extract(KindMonoWW, -1, nil, []int{pr[0]}))
		d.add(ex.extract(KindMonoWW, -1, nil, []int{pr[1]}))
		d.Stats.NumWWPairs++
	}

	d.finishStats()
	return d, nil
}

func (d *Decomposition) add(f Fragment) {
	f.ID = len(d.Fragments)
	d.Fragments = append(d.Fragments, f)
}

func (d *Decomposition) finishStats() {
	s := &d.Stats
	s.TotalFragments = len(d.Fragments)
	s.SizeHistogram = make(map[int]int)
	for i := range d.Fragments {
		n := d.Fragments[i].NumAtoms()
		s.SizeHistogram[n]++
		if s.MinAtoms == 0 || n < s.MinAtoms {
			s.MinAtoms = n
		}
		if n > s.MaxAtoms {
			s.MaxAtoms = n
		}
	}
}

// chainRanges returns the [lo,hi] global residue index range of each chain.
// Residues of one chain must be contiguous in the System.
func chainRanges(sys *structure.System) []piece {
	var out []piece
	for i := 0; i < len(sys.Residues); {
		j := i
		for j+1 < len(sys.Residues) && sys.Residues[j+1].Chain == sys.Residues[i].Chain {
			j++
		}
		out = append(out, piece{i, j})
		i = j + 1
	}
	return out
}

// piece is a contiguous run of residues [lo, hi].
type piece struct{ lo, hi int }

// chainPieces cuts an n-residue chain at every peptide bond except the first
// and the last, following the paper: n−3 cuts yield n−2 pieces, the first
// and last of which hold two residues. Chains with n ≤ 3 stay whole.
func chainPieces(n int) []piece {
	if n == 0 {
		return nil
	}
	if n <= 3 {
		return []piece{{0, n - 1}}
	}
	out := make([]piece, 0, n-2)
	out = append(out, piece{0, 1})
	for r := 2; r <= n-3; r++ {
		out = append(out, piece{r, r})
	}
	out = append(out, piece{n - 2, n - 1})
	return out
}
