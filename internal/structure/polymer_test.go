package structure

import (
	"bytes"
	"testing"
)

func TestPolymerMeltGolden(t *testing.T) {
	// HO–(CH₂CH₂O)ₙ–H: each chain has 7n+3 atoms (3n backbone, 4n+2
	// hydrogens, 1 extra backbone O) and 7n+2 covalent bonds (a tree).
	const chains, monomers = 3, 5
	sys := BuildPolymerMelt(chains, monomers, 42)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	perChain := 7*monomers + 3
	if got, want := sys.NumAtoms(), chains*perChain; got != want {
		t.Fatalf("melt has %d atoms, want %d", got, want)
	}
	if len(sys.Molecules) != chains || len(sys.Residues) != 0 || len(sys.Waters) != 0 {
		t.Fatalf("melt classified as %d molecules, %d residues, %d waters",
			len(sys.Molecules), len(sys.Residues), len(sys.Waters))
	}
	for i, m := range sys.Molecules {
		if m.Count != perChain || m.First != i*perChain {
			t.Fatalf("chain %d spans [%d,%d), want [%d,%d)", i, m.First, m.First+m.Count,
				i*perChain, (i+1)*perChain)
		}
		if m.N != -1 || m.CA != -1 || m.C != -1 || m.O != -1 {
			t.Fatalf("chain %d has protein backbone indices %+v", i, m)
		}
	}

	// The perceived covalent topology must be exactly chains disjoint
	// trees: 7n+2 bonds per chain, none between chains.
	bonds := bonds(sys)
	if got, want := len(bonds), chains*(7*monomers+2); got != want {
		t.Fatalf("perceived %d bonds, want %d — chain geometry produced spurious or missing bonds", got, want)
	}
	chainOf := func(a int) int { return a / perChain }
	for _, b := range bonds {
		if chainOf(b[0]) != chainOf(b[1]) {
			t.Fatalf("spurious inter-chain bond %d–%d at 6 Å chain spacing", b[0], b[1])
		}
	}
}

func TestPolymerMeltDeterministicAndSeeded(t *testing.T) {
	a := BuildPolymerMelt(2, 4, 7)
	b := BuildPolymerMelt(2, 4, 7)
	c := BuildPolymerMelt(2, 4, 8)
	var wa, wb, wc bytes.Buffer
	if err := a.WriteText(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteText(&wb); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteText(&wc); err != nil {
		t.Fatal(err)
	}
	if wa.String() != wb.String() {
		t.Fatal("same seed produced different melts")
	}
	if wa.String() == wc.String() {
		t.Fatal("different seeds produced identical melts")
	}
}

func TestPolymerMeltRoundTrip(t *testing.T) {
	sys := BuildPolymerMelt(2, 3, 1)
	var buf bytes.Buffer
	if err := sys.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != sys.NumAtoms() || len(got.Molecules) != len(sys.Molecules) {
		t.Fatalf("round trip: %d atoms / %d molecules, want %d / %d",
			got.NumAtoms(), len(got.Molecules), sys.NumAtoms(), len(sys.Molecules))
	}
	for i, m := range got.Molecules {
		o := sys.Molecules[i]
		if m.First != o.First || m.Count != o.Count || m.Name != o.Name {
			t.Fatalf("molecule %d round-tripped as %+v, want %+v", i, m, o)
		}
	}
	// WriteText quantizes coordinates to the text precision, so a second
	// round trip must be exact.
	var buf2 bytes.Buffer
	if err := got.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadSystem(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Atoms {
		if got.Atoms[i] != got2.Atoms[i] {
			t.Fatalf("atom %d drifted across round trips", i)
		}
	}
}

func FuzzReadSystem(f *testing.F) {
	// Seed with each generator family's text output — protein, water,
	// polymer melt — plus a malformed stub.
	seed := func(sys *System) {
		var buf bytes.Buffer
		if err := sys.WriteText(&buf); err == nil {
			f.Add(buf.Bytes())
		}
	}
	if p, err := BuildProtein("GAG"); err == nil {
		seed(p)
	}
	seed(BuildWaterDimerSystem(2))
	seed(BuildPolymerMelt(1, 2, 3))
	f.Add([]byte("# qframan structure: bogus\nATOM X\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := ReadSystem(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that parses must round-trip to a system that parses to
		// the same classification.
		var buf bytes.Buffer
		if err := sys.WriteText(&buf); err != nil {
			return
		}
		got, err := ReadSystem(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if got.NumAtoms() != sys.NumAtoms() ||
			len(got.Residues) != len(sys.Residues) ||
			len(got.Waters) != len(sys.Waters) ||
			len(got.Molecules) != len(sys.Molecules) {
			t.Fatalf("round trip changed classification: %d/%d/%d/%d → %d/%d/%d/%d",
				sys.NumAtoms(), len(sys.Residues), len(sys.Waters), len(sys.Molecules),
				got.NumAtoms(), len(got.Residues), len(got.Waters), len(got.Molecules))
		}
	})
}
