package structure

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"qframan/internal/constants"
	"qframan/internal/geom"
)

// The on-disk format is a simple PDB-inspired text format, one record per
// line:
//
//	ATOM <index> <name> <element> <resname> <resid> <chain> <x> <y> <z>
//
// with residues appearing in chain order, waters (resname HOH) after the
// protein, and generic molecules (any other resname, e.g. PEG) last.
// Coordinates are in Å. Lines starting with '#' are comments.

// WriteText writes the system in the text format.
func (s *System) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# qframan structure: %d atoms, %d residues, %d waters, %d molecules\n",
		len(s.Atoms), len(s.Residues), len(s.Waters), len(s.Molecules))
	write := func(r Residue, resid int) {
		for i := r.First; i < r.First+r.Count; i++ {
			a := s.Atoms[i]
			fmt.Fprintf(bw, "ATOM %d %s %s %s %d %d %.6f %.6f %.6f\n",
				i, a.Name, a.El, r.Name, resid, r.Chain, a.Pos.X, a.Pos.Y, a.Pos.Z)
		}
	}
	for ri, r := range s.Residues {
		write(r, ri)
	}
	for wi, w2 := range s.Waters {
		write(w2, len(s.Residues)+wi)
	}
	for mi, m := range s.Molecules {
		write(m, len(s.Residues)+len(s.Waters)+mi)
	}
	return bw.Flush()
}

// maxLine is the longest line the text readers accept (ReadSystem,
// TrajectoryReader); a longer one fails with bufio.ErrTooLong.
const maxLine = 1 << 20

// ReadSystem parses the text format produced by WriteText. Residues are
// classified by name: the 20 amino-acid codes become protein residues
// (backbone indices reconstructed from atom names N, CA, C, O), HOH becomes
// water, and any other name becomes a generic molecule for the graph
// partitioner.
func ReadSystem(r io.Reader) (*System, error) {
	sc := bufio.NewScanner(r)
	// The scanner's buffer starts small and grows to the longest line, so a
	// text costs its own size, not the cap.
	sc.Buffer(nil, maxLine)
	sys := &System{}
	type resKey struct {
		name string
		id   int
	}
	var cur resKey
	var curRes *Residue
	flush := func() {
		if curRes == nil {
			return
		}
		switch {
		case curRes.IsWater():
			sys.Waters = append(sys.Waters, *curRes)
		case IsAminoAcidName(curRes.Name):
			sys.Residues = append(sys.Residues, *curRes)
		default:
			sys.Molecules = append(sys.Molecules, *curRes)
		}
		curRes = nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 10 || f[0] != "ATOM" {
			return nil, fmt.Errorf("structure: line %d: malformed record %q", lineNo, line)
		}
		el, ok := constants.ElementFromSymbol(f[3])
		if !ok {
			return nil, fmt.Errorf("structure: line %d: unsupported element %q", lineNo, f[3])
		}
		id, err := strconv.Atoi(f[5])
		if err != nil {
			return nil, fmt.Errorf("structure: line %d: bad residue id: %v", lineNo, err)
		}
		chain, err := strconv.Atoi(f[6])
		if err != nil {
			return nil, fmt.Errorf("structure: line %d: bad chain id: %v", lineNo, err)
		}
		var pos geom.Vec3
		for k, dst := range []*float64{&pos.X, &pos.Y, &pos.Z} {
			v, err := strconv.ParseFloat(f[7+k], 64)
			if err != nil {
				return nil, fmt.Errorf("structure: line %d: bad coordinate: %v", lineNo, err)
			}
			*dst = v
		}
		key := resKey{f[4], id}
		if curRes == nil || key != cur {
			flush()
			cur = key
			curRes = &Residue{Name: f[4], First: len(sys.Atoms), Chain: chain, N: -1, CA: -1, C: -1, O: -1}
		}
		idx := len(sys.Atoms)
		sys.Atoms = append(sys.Atoms, Atom{El: el, Pos: pos, Name: f[2]})
		curRes.Count++
		switch f[2] {
		case "N":
			curRes.N = idx
		case "CA":
			curRes.CA = idx
		case "C":
			curRes.C = idx
		case "O":
			curRes.O = idx
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return sys, sys.Validate()
}
