package structure

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"qframan/internal/constants"
	"qframan/internal/geom"
)

// Trajectory I/O uses the extended-XYZ convention of MD codes: every frame
// is an atom-count line, a free-form comment line, and one "El x y z" line
// per atom (extra per-atom columns — velocities, forces — are tolerated and
// ignored). Coordinates are in Å and written with full float64 precision
// (%.17g), so a frame survives a write/read round trip bit-exactly — the
// property the trajectory engine's fingerprint diffing depends on: an
// unmoved molecule must hash to the same key on every frame.

// maxFrameAtoms bounds the declared atom count of one trajectory frame: a
// hostile or corrupt header must never drive a giant allocation. The cap is
// far above any in-process system (the 100M-atom production shape streams
// through the distributed runtime, not this reader).
const maxFrameAtoms = 50_000_000

// TrajFrame is one decoded trajectory frame.
type TrajFrame struct {
	// Index is the zero-based position of the frame in the stream.
	Index   int
	Comment string
	Els     []constants.Element
	Pos     []geom.Vec3
}

// TrajectoryReader streams extended-XYZ frames from a reader.
type TrajectoryReader struct {
	sc     *bufio.Scanner
	lineNo int
	frame  int
}

// NewTrajectoryReader wraps r for frame-by-frame decoding.
func NewTrajectoryReader(r io.Reader) *TrajectoryReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine) // once per stream
	return &TrajectoryReader{sc: sc}
}

// Next decodes the next frame. It returns io.EOF at a clean end of stream
// and a descriptive error — never a panic — on malformed input: truncated
// frames, absurd or non-positive atom counts, unknown elements, and
// NaN/Inf coordinates (which would silently poison every downstream solver)
// are all rejected.
func (tr *TrajectoryReader) Next() (*TrajFrame, error) {
	// Skip blank separator lines between frames.
	var header string
	for {
		line, ok := tr.readLine()
		if !ok {
			if err := tr.sc.Err(); err != nil {
				return nil, fmt.Errorf("structure: trajectory line %d: %w", tr.lineNo, err)
			}
			return nil, io.EOF
		}
		if strings.TrimSpace(line) != "" {
			header = strings.TrimSpace(line)
			break
		}
	}
	n, err := strconv.Atoi(header)
	if err != nil {
		return nil, fmt.Errorf("structure: trajectory line %d: bad atom count %q", tr.lineNo, header)
	}
	if n <= 0 || n > maxFrameAtoms {
		return nil, fmt.Errorf("structure: trajectory line %d: atom count %d out of range [1,%d]", tr.lineNo, n, maxFrameAtoms)
	}
	comment, ok := tr.readLine()
	if !ok {
		return nil, fmt.Errorf("structure: trajectory: truncated frame %d (missing comment line)", tr.frame)
	}
	f := &TrajFrame{
		Index:   tr.frame,
		Comment: strings.TrimSpace(comment),
		// Grow incrementally up to n: the declared count is untrusted until
		// the atom lines actually arrive.
		Els: make([]constants.Element, 0, minInt(n, 65536)),
		Pos: make([]geom.Vec3, 0, minInt(n, 65536)),
	}
	for i := 0; i < n; i++ {
		line, ok := tr.readLine()
		if !ok {
			return nil, fmt.Errorf("structure: trajectory: truncated frame %d (%d of %d atoms)", tr.frame, i, n)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("structure: trajectory line %d: malformed atom record %q", tr.lineNo, strings.TrimSpace(line))
		}
		el, ok := constants.ElementFromSymbol(fields[0])
		if !ok {
			return nil, fmt.Errorf("structure: trajectory line %d: unsupported element %q", tr.lineNo, fields[0])
		}
		var p geom.Vec3
		for k, dst := range []*float64{&p.X, &p.Y, &p.Z} {
			v, err := strconv.ParseFloat(fields[1+k], 64)
			if err != nil {
				return nil, fmt.Errorf("structure: trajectory line %d: bad coordinate %q", tr.lineNo, fields[1+k])
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("structure: trajectory line %d: non-finite coordinate %q", tr.lineNo, fields[1+k])
			}
			*dst = v
		}
		f.Els = append(f.Els, el)
		f.Pos = append(f.Pos, p)
	}
	tr.frame++
	return f, nil
}

func (tr *TrajectoryReader) readLine() (string, bool) {
	if !tr.sc.Scan() {
		return "", false
	}
	tr.lineNo++
	return tr.sc.Text(), true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// WriteTrajectoryFrame appends one frame holding the system's current
// coordinates. Coordinates are written with full precision so that applying
// the frame back onto the same topology reproduces the system bit-exactly.
func WriteTrajectoryFrame(w io.Writer, sys *System, comment string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n%s\n", len(sys.Atoms), strings.ReplaceAll(comment, "\n", " "))
	for _, a := range sys.Atoms {
		fmt.Fprintf(bw, "%s %.17g %.17g %.17g\n", a.El, a.Pos.X, a.Pos.Y, a.Pos.Z)
	}
	return bw.Flush()
}

// ApplyFrame returns a copy of the topology template carrying the frame's
// coordinates. The frame must match the template atom-for-atom: trajectory
// frames carry no residue topology of their own, so element disagreement
// means the trajectory belongs to a different system.
func ApplyFrame(tmpl *System, f *TrajFrame) (*System, error) {
	if len(f.Els) != len(tmpl.Atoms) {
		return nil, fmt.Errorf("structure: frame %d has %d atoms, topology has %d", f.Index, len(f.Els), len(tmpl.Atoms))
	}
	out := &System{
		Atoms:    make([]Atom, len(tmpl.Atoms)),
		Residues: tmpl.Residues,
		Waters:   tmpl.Waters,
	}
	copy(out.Atoms, tmpl.Atoms)
	for i := range out.Atoms {
		if f.Els[i] != tmpl.Atoms[i].El {
			return nil, fmt.Errorf("structure: frame %d atom %d is %s, topology has %s",
				f.Index, i, f.Els[i], tmpl.Atoms[i].El)
		}
		out.Atoms[i].Pos = f.Pos[i]
	}
	return out, nil
}

// SystemFromTrajFrame infers a water-only topology from a frame whose atoms
// are O,H,H triplets — the common case of a neat-water MD trajectory with no
// separate topology file. Anything else is an error: protein trajectories
// need an explicit topology (qframan -in) because residue boundaries cannot
// be recovered from elements alone.
func SystemFromTrajFrame(f *TrajFrame) (*System, error) {
	if len(f.Els)%3 != 0 {
		return nil, fmt.Errorf("structure: frame %d: %d atoms is not a whole number of waters; water-topology inference needs O,H,H triplets (use an explicit topology otherwise)", f.Index, len(f.Els))
	}
	sys := &System{Atoms: make([]Atom, 0, len(f.Els))}
	names := [3]string{"OW", "HW1", "HW2"}
	for i := 0; i < len(f.Els); i += 3 {
		if f.Els[i] != constants.O || f.Els[i+1] != constants.H || f.Els[i+2] != constants.H {
			return nil, fmt.Errorf("structure: frame %d: atoms %d..%d are %s,%s,%s, want O,H,H; water-topology inference needs O,H,H triplets", f.Index, i, i+2, f.Els[i], f.Els[i+1], f.Els[i+2])
		}
		for k := 0; k < 3; k++ {
			sys.Atoms = append(sys.Atoms, Atom{El: f.Els[i+k], Pos: f.Pos[i+k], Name: names[k]})
		}
		sys.Waters = append(sys.Waters, Residue{
			Name: "HOH", First: i, Count: 3, N: -1, CA: -1, C: -1, O: -1,
		})
	}
	return sys, sys.Validate()
}
