package structure

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
)

// allCodes is a sequence containing every amino acid once.
const allCodes = "GASCTVPLINDQEKRHFYWM"

// aminoAcidCodes returns the 20 one-letter codes in template order.
func aminoAcidCodes() []byte {
	out := make([]byte, len(aminoAcids))
	for i, a := range aminoAcids {
		out[i] = a.Code
	}
	return out
}

// residueAtomCount returns the number of atoms the builder produces for a
// mid-chain residue with the given one-letter code (termini add extras).
// The boolean reports whether the code is known.
func residueAtomCount(code byte) (int, bool) {
	t, ok := aaByCode[code]
	if !ok {
		return 0, false
	}
	n := 6 // N, H, CA, HA, C, O
	if t.ExtraHA {
		n++
	}
	for _, a := range t.SC {
		n += 1 + a.NH
	}
	return n, true
}

// bonds is the system's covalent bond list, as SubsetBonds detects it.
func bonds(s *System) [][2]int {
	els := make([]constants.Element, len(s.Atoms))
	for i, a := range s.Atoms {
		els[i] = a.El
	}
	return SubsetBonds(els, s.Positions())
}

func TestResidueAtomCounts(t *testing.T) {
	// Spot-check canonical counts (backbone 6 + side chain; GLY has HA2).
	// Template truth: acyclic-tree approximations of the aromatic rings
	// carry one extra hydrogen (F/Y) and protonated acids one extra (D/E),
	// keeping every count within ±1 of the physical residue.
	want := map[byte]int{
		'G': 7, 'A': 10, 'S': 11, 'C': 11, 'T': 14, 'V': 16,
		'L': 19, 'I': 19, 'N': 14, 'D': 13, 'Q': 17, 'E': 16,
		'K': 21, 'R': 23, 'F': 22, 'Y': 23, 'M': 17, 'W': 28, 'H': 19,
	}
	for code, n := range want {
		got, ok := residueAtomCount(code)
		if !ok {
			t.Fatalf("unknown code %c", code)
		}
		if got != n {
			t.Errorf("residueAtomCount(%c) = %d, want %d", code, got, n)
		}
	}
	if _, ok := residueAtomCount('Z'); ok {
		t.Error("ResidueAtomCount accepted unknown code Z")
	}
	if len(aminoAcidCodes()) != 20 {
		t.Errorf("expected 20 amino acids, got %d", len(aminoAcidCodes()))
	}
}

func TestBuildProteinBasics(t *testing.T) {
	sys, err := BuildProtein(allCodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Residues) != 20 {
		t.Fatalf("residues = %d", len(sys.Residues))
	}
	// Mid-chain residue counts must match the template counts.
	for i, r := range sys.Residues {
		if i == 0 || i == len(sys.Residues)-1 {
			continue
		}
		want, _ := residueAtomCount(allCodes[i])
		if r.Count != want {
			t.Errorf("residue %d (%s): %d atoms, want %d", i, r.Name, r.Count, want)
		}
	}
	// Termini have extras: +1 H at N-term, +2 (OXT, HXT) at C-term.
	w0, _ := residueAtomCount(allCodes[0])
	if sys.Residues[0].Count != w0+1 {
		t.Errorf("N-terminal residue has %d atoms, want %d", sys.Residues[0].Count, w0+1)
	}
	wl, _ := residueAtomCount(allCodes[len(allCodes)-1])
	last := sys.Residues[len(sys.Residues)-1]
	if last.Count != wl+2 {
		t.Errorf("C-terminal residue has %d atoms, want %d", last.Count, wl+2)
	}
}

func TestBuildProteinRejectsBadInput(t *testing.T) {
	if _, err := BuildProtein(""); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := BuildProtein("AXB"); err == nil {
		t.Error("unknown code accepted")
	}
}

// minInterAtomDistance returns the smallest pairwise distance in the system.
func minInterAtomDistance(sys *System) float64 {
	min := math.Inf(1)
	for i := range sys.Atoms {
		for j := i + 1; j < len(sys.Atoms); j++ {
			if d := sys.Atoms[i].Pos.Dist(sys.Atoms[j].Pos); d < min {
				min = d
			}
		}
	}
	return min
}

func TestProteinGeometrySane(t *testing.T) {
	sys, err := BuildProtein(allCodes)
	if err != nil {
		t.Fatal(err)
	}
	if d := minInterAtomDistance(sys); d < 0.72 {
		t.Fatalf("atoms too close: min distance %.3f Å", d)
	}
}

func TestProteinTopologyConnected(t *testing.T) {
	sys, err := BuildProtein("GAVLK")
	if err != nil {
		t.Fatal(err)
	}
	bonds := bonds(sys)
	// Union-find over atoms: the peptide chain must be a single component.
	parent := make([]int, len(sys.Atoms))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, b := range bonds {
		parent[find(b[0])] = find(b[1])
	}
	root := find(0)
	for i := range parent {
		if find(i) != root {
			t.Fatalf("atom %d (%s) disconnected from the chain", i, sys.Atoms[i].Name)
		}
	}
}

func TestPeptideBondsPresent(t *testing.T) {
	sys, err := BuildProtein("AAAA")
	if err != nil {
		t.Fatal(err)
	}
	bonds := bonds(sys)
	has := func(i, j int) bool {
		for _, b := range bonds {
			if (b[0] == i && b[1] == j) || (b[0] == j && b[1] == i) {
				return true
			}
		}
		return false
	}
	for k := 0; k+1 < len(sys.Residues); k++ {
		if !has(sys.Residues[k].C, sys.Residues[k+1].N) {
			t.Errorf("missing peptide bond between residues %d and %d", k, k+1)
		}
	}
	// And no bond between non-adjacent backbones.
	if has(sys.Residues[0].C, sys.Residues[2].N) {
		t.Error("spurious long-range backbone bond")
	}
}

func TestEveryResidueGeometry(t *testing.T) {
	// Each amino acid alone in a tripeptide context: check hydrogen counts
	// via bonds — every H must have exactly one bond.
	for _, code := range aminoAcidCodes() {
		seq := "G" + string(code) + "G"
		sys, err := BuildProtein(seq)
		if err != nil {
			t.Fatalf("%c: %v", code, err)
		}
		bonds := bonds(sys)
		deg := make([]int, len(sys.Atoms))
		for _, b := range bonds {
			deg[b[0]]++
			deg[b[1]]++
		}
		for i, a := range sys.Atoms {
			if a.El == constants.H && deg[i] != 1 {
				t.Errorf("%c: hydrogen %d (%s) has %d bonds", code, i, a.Name, deg[i])
			}
			// Carbonyl/carboxyl oxygens are terminal (degree 1); every
			// heavy atom must be bonded to something.
			if a.El != constants.H && deg[i] < 1 {
				t.Errorf("%c: heavy atom %d (%s) has no bonds", code, i, a.Name)
			}
		}
	}
}

func TestBuildProteinFoldedBringsLegsClose(t *testing.T) {
	seq := RandomSequence(40, 7)
	sys, err := BuildProteinFolded(seq, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	// Some pair of residues ≥3 apart in sequence must have atoms within 4 Å.
	found := false
	for i := 0; i < len(sys.Residues) && !found; i++ {
		for j := i + 3; j < len(sys.Residues) && !found; j++ {
			ri, rj := sys.Residues[i], sys.Residues[j]
			for a := ri.First; a < ri.First+ri.Count && !found; a++ {
				for b := rj.First; b < rj.First+rj.Count; b++ {
					if sys.Atoms[a].Pos.Dist(sys.Atoms[b].Pos) <= 4.0 {
						found = true
						break
					}
				}
			}
		}
	}
	if !found {
		t.Error("folded protein has no non-neighbor residue pairs within 4 Å; generalized concaps would be empty")
	}
	// Folding must not fuse the legs covalently: min distance stays sane.
	if d := minInterAtomDistance(sys); d < 0.72 {
		t.Fatalf("folded protein atoms overlap: min distance %.3f Å", d)
	}
}

func TestWaterBox(t *testing.T) {
	sys := BuildWaterBox(3, 3, 3, geom.Vec3{})
	if len(sys.Waters) != 27 {
		t.Fatalf("waters = %d", len(sys.Waters))
	}
	if len(sys.Atoms) != 81 {
		t.Fatalf("atoms = %d", len(sys.Atoms))
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each water internally bonded, no inter-molecular covalent bonds.
	bonds := bonds(sys)
	for _, b := range bonds {
		w1 := -1
		w2 := -2
		for wi, w := range sys.Waters {
			if b[0] >= w.First && b[0] < w.First+w.Count {
				w1 = wi
			}
			if b[1] >= w.First && b[1] < w.First+w.Count {
				w2 = wi
			}
		}
		if w1 != w2 {
			t.Fatalf("inter-molecular covalent bond between waters %d and %d", w1, w2)
		}
	}
	if len(bonds) != 2*27 {
		t.Fatalf("bond count = %d, want 54", len(bonds))
	}
}

func TestWaterGeometry(t *testing.T) {
	sys := BuildWaterBox(2, 2, 2, geom.Vec3{})
	for _, w := range sys.Waters {
		o := sys.Atoms[w.First].Pos
		h1 := sys.Atoms[w.First+1].Pos
		h2 := sys.Atoms[w.First+2].Pos
		if math.Abs(o.Dist(h1)-waterOH) > 1e-9 || math.Abs(o.Dist(h2)-waterOH) > 1e-9 {
			t.Fatal("O–H length wrong")
		}
		cosA := h1.Sub(o).Normalize().Dot(h2.Sub(o).Normalize())
		if math.Abs(math.Acos(cosA)-waterAngle) > 1e-9 {
			t.Fatal("H–O–H angle wrong")
		}
	}
}

func TestWaterBoxDeterministic(t *testing.T) {
	a := BuildWaterBox(2, 3, 4, geom.Vec3{})
	b := BuildWaterBox(2, 3, 4, geom.Vec3{})
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos {
			t.Fatal("water box generation is not deterministic")
		}
	}
}

func TestWaterDimerSystem(t *testing.T) {
	sys := BuildWaterDimerSystem(5)
	if len(sys.Waters) != 10 || len(sys.Atoms) != 30 {
		t.Fatalf("dimer system: %d waters, %d atoms", len(sys.Waters), len(sys.Atoms))
	}
	// Within a dimer, O–O distance is 2.8 Å; across dimers, much larger.
	for i := 0; i < 5; i++ {
		o1 := sys.Atoms[sys.Waters[2*i].First].Pos
		o2 := sys.Atoms[sys.Waters[2*i+1].First].Pos
		if math.Abs(o1.Dist(o2)-2.8) > 1e-9 {
			t.Fatalf("dimer %d O–O distance %.3f", i, o1.Dist(o2))
		}
	}
}

func TestSolvate(t *testing.T) {
	protein, err := BuildProtein("GAG")
	if err != nil {
		t.Fatal(err)
	}
	solvated := SolvateInWater(protein, 6.0, 2.4)
	if err := solvated.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(solvated.Waters) == 0 {
		t.Fatal("solvation added no waters")
	}
	if len(solvated.Residues) != 3 {
		t.Fatal("solvation lost protein residues")
	}
	// No water oxygen within the exclusion radius of any protein atom.
	for _, w := range solvated.Waters {
		o := solvated.Atoms[w.First].Pos
		for i := 0; i < protein.NumAtoms(); i++ {
			if o.Dist(solvated.Atoms[i].Pos) < 2.4 {
				t.Fatalf("water at %v overlaps protein atom %d", o, i)
			}
		}
	}
}

func TestRandomSequence(t *testing.T) {
	s1 := RandomSequence(500, 1)
	s2 := RandomSequence(500, 1)
	if s1 != s2 {
		t.Fatal("RandomSequence not deterministic for equal seeds")
	}
	if RandomSequence(500, 2) == s1 {
		t.Fatal("RandomSequence identical across seeds")
	}
	// All codes valid.
	for i := 0; i < len(s1); i++ {
		if _, ok := residueAtomCount(s1[i]); !ok {
			t.Fatalf("invalid code %c in random sequence", s1[i])
		}
	}
	// Leucine should be the most common residue in a long draw.
	counts := map[byte]int{}
	long := RandomSequence(20000, 3)
	for i := 0; i < len(long); i++ {
		counts[long[i]]++
	}
	if counts['L'] < counts['W'] {
		t.Error("composition weights ignored: W more common than L")
	}
}

func TestIORoundTrip(t *testing.T) {
	protein, err := BuildProtein("GAVK")
	if err != nil {
		t.Fatal(err)
	}
	sys := SolvateInWater(protein, 4.0, 2.4)
	var buf bytes.Buffer
	if err := sys.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != sys.NumAtoms() ||
		len(got.Residues) != len(sys.Residues) ||
		len(got.Waters) != len(sys.Waters) {
		t.Fatalf("round trip shape mismatch: %d/%d/%d vs %d/%d/%d",
			got.NumAtoms(), len(got.Residues), len(got.Waters),
			sys.NumAtoms(), len(sys.Residues), len(sys.Waters))
	}
	for i := range sys.Atoms {
		if sys.Atoms[i].El != got.Atoms[i].El {
			t.Fatalf("atom %d element mismatch", i)
		}
		if sys.Atoms[i].Pos.Dist(got.Atoms[i].Pos) > 1e-5 {
			t.Fatalf("atom %d position mismatch", i)
		}
	}
	for i := range sys.Residues {
		if sys.Residues[i].N != got.Residues[i].N || sys.Residues[i].CA != got.Residues[i].CA {
			t.Fatalf("residue %d backbone indices mismatch", i)
		}
	}
}

func TestReadSystemErrors(t *testing.T) {
	cases := []string{
		"ATOM bogus line",
		"ATOM 0 X Zz GLY 0 0 0 0 0",
		"ATOM 0 N N GLY zero 0 0 0 0",
		"ATOM 0 N N GLY 0 chain 0 0 0",
		"ATOM 0 N N GLY 0 0 x 0 0",
	}
	for _, c := range cases {
		if _, err := ReadSystem(strings.NewReader(c)); err == nil {
			t.Errorf("ReadSystem accepted %q", c)
		}
	}
}

func TestMerge(t *testing.T) {
	p1, _ := BuildProtein("GA")
	p2 := BuildWaterBox(2, 1, 1, geom.Vec3{X: 50})
	n1 := p1.NumAtoms()
	p1.Merge(p2)
	if p1.NumAtoms() != n1+6 {
		t.Fatal("merge atom count wrong")
	}
	if len(p1.Waters) != 2 {
		t.Fatal("merge water count wrong")
	}
	if p1.Waters[0].First != n1 {
		t.Fatal("merge did not offset water indices")
	}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
}
