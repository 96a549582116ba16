package structure

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
)

// TestTrajectoryRoundTrip: writing a system as frames and reading them back
// reproduces every coordinate bit-exactly — the contract fingerprint diffing
// rests on.
func TestTrajectoryRoundTrip(t *testing.T) {
	sys := BuildWaterBox(2, 2, 1, geom.Vec3{})
	frames := PerturbedTrajectory(sys, PerturbOptions{Frames: 4, MoveFrac: 0.4, Jitter: 0.03, RigidFrac: 0.2, RigidStep: 0.2, Seed: 7})
	var buf bytes.Buffer
	for i, f := range frames {
		fs, err := ApplyFrame(sys, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTrajectoryFrame(&buf, fs, "frame"); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	tr := NewTrajectoryReader(&buf)
	for i, want := range frames {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Index != i {
			t.Fatalf("frame %d decoded with index %d", i, got.Index)
		}
		if len(got.Pos) != len(want.Pos) {
			t.Fatalf("frame %d: %d atoms, want %d", i, len(got.Pos), len(want.Pos))
		}
		for a := range got.Pos {
			if got.Els[a] != want.Els[a] {
				t.Fatalf("frame %d atom %d: element %s, want %s", i, a, got.Els[a], want.Els[a])
			}
			for _, pair := range [][2]float64{
				{got.Pos[a].X, want.Pos[a].X}, {got.Pos[a].Y, want.Pos[a].Y}, {got.Pos[a].Z, want.Pos[a].Z},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("frame %d atom %d: coordinate %v != %v (not bit-exact)", i, a, pair[0], pair[1])
				}
			}
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF at end of stream, got %v", err)
	}
}

// TestTrajectoryReaderErrors: malformed streams must error with context,
// never panic and never return a half-decoded frame.
func TestTrajectoryReaderErrors(t *testing.T) {
	cases := map[string]string{
		"bad count":         "x\ncomment\n",
		"zero count":        "0\ncomment\n",
		"negative count":    "-3\ncomment\n",
		"absurd count":      "999999999999\ncomment\n",
		"missing comment":   "2",
		"truncated atoms":   "3\nc\nO 0 0 0\nH 1 0 0\n",
		"short atom record": "1\nc\nO 0 0\n",
		"unknown element":   "1\nc\nXx 0 0 0\n",
		"bad coordinate":    "1\nc\nO 0 zero 0\n",
		"nan coordinate":    "1\nc\nO NaN 0 0\n",
		"inf coordinate":    "1\nc\nO 0 +Inf 0\n",
		"neg inf":           "1\nc\nO 0 0 -inf\n",
	}
	for name, in := range cases {
		if f, err := decodeFrame([]byte(in)); err == nil {
			t.Errorf("%s: decoded %d atoms, want error", name, len(f.Els))
		}
	}
	// Extra per-atom columns (velocities, forces) are fine.
	f, err := decodeFrame([]byte("1\nLattice=...\nO 1.5 2.5 3.5 0.1 0.2 0.3\n"))
	if err != nil {
		t.Fatalf("extended columns: %v", err)
	}
	if f.Pos[0] != (geom.Vec3{X: 1.5, Y: 2.5, Z: 3.5}) {
		t.Fatalf("extended columns decoded %v", f.Pos[0])
	}
	// Blank separator lines between frames are skipped.
	tr := NewTrajectoryReader(strings.NewReader("1\nc\nO 0 0 0\n\n\n1\nc\nO 1 0 0\n"))
	for i := 0; i < 2; i++ {
		if _, err := tr.Next(); err != nil {
			t.Fatalf("frame %d after blank separator: %v", i, err)
		}
	}
}

// TestApplyFrameMismatch: a frame from a different system must be rejected.
func TestApplyFrameMismatch(t *testing.T) {
	sys := BuildWaterBox(1, 1, 1, geom.Vec3{})
	if _, err := ApplyFrame(sys, &TrajFrame{Els: make([]constants.Element, 5), Pos: make([]geom.Vec3, 5)}); err == nil {
		t.Fatal("atom-count mismatch accepted")
	}
	f := &TrajFrame{
		Els: []constants.Element{constants.H, constants.H, constants.O},
		Pos: make([]geom.Vec3, 3),
	}
	if _, err := ApplyFrame(sys, f); err == nil {
		t.Fatal("element mismatch accepted")
	}
}

// TestSystemFromTrajFrame: O,H,H triplets infer a water topology; anything
// else is rejected.
func TestSystemFromTrajFrame(t *testing.T) {
	base := BuildWaterBox(2, 1, 1, geom.Vec3{})
	var buf bytes.Buffer
	if err := WriteTrajectoryFrame(&buf, base, ""); err != nil {
		t.Fatal(err)
	}
	f, err := NewTrajectoryReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := SystemFromTrajFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Waters) != len(base.Waters) || sys.NumAtoms() != base.NumAtoms() {
		t.Fatalf("inferred %d waters / %d atoms, want %d / %d",
			len(sys.Waters), sys.NumAtoms(), len(base.Waters), base.NumAtoms())
	}
	if _, err := SystemFromTrajFrame(&TrajFrame{Els: make([]constants.Element, 4), Pos: make([]geom.Vec3, 4)}); err == nil {
		t.Fatal("non-triplet atom count accepted")
	}
	bad := &TrajFrame{
		Els: []constants.Element{constants.H, constants.O, constants.H},
		Pos: make([]geom.Vec3, 3),
	}
	if _, err := SystemFromTrajFrame(bad); err == nil {
		t.Fatal("non-water triplet accepted")
	}
}

// TestPerturbedTrajectory: frame 0 is the base bit-exactly; later frames
// move some molecules and leave the rest bit-identical; equal seeds
// reproduce the trajectory exactly.
func TestPerturbedTrajectory(t *testing.T) {
	sys := BuildWaterBox(2, 2, 2, geom.Vec3{})
	opt := PerturbOptions{Frames: 3, MoveFrac: 0.3, Jitter: 0.02, Seed: 42}
	frames := PerturbedTrajectory(sys, opt)
	if len(frames) != 3 {
		t.Fatalf("%d frames, want 3", len(frames))
	}
	base := sys.Positions()
	for i, p := range frames[0].Pos {
		if p != base[i] {
			t.Fatalf("frame 0 atom %d moved: %v != %v", i, p, base[i])
		}
	}
	moved, kept := 0, 0
	for _, w := range sys.Waters {
		same := true
		for i := w.First; i < w.First+w.Count; i++ {
			if frames[1].Pos[i] != frames[0].Pos[i] {
				same = false
			}
		}
		if same {
			kept++
		} else {
			moved++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("frame 1: %d moved, %d kept; want both non-zero", moved, kept)
	}
	again := PerturbedTrajectory(sys, opt)
	for fi := range frames {
		for i := range frames[fi].Pos {
			if frames[fi].Pos[i] != again[fi].Pos[i] {
				t.Fatalf("seeded trajectory not reproducible at frame %d atom %d", fi, i)
			}
		}
	}
}

// decodeFrame reads the first frame of data with the trajectory reader.
func decodeFrame(data []byte) (*TrajFrame, error) {
	return NewTrajectoryReader(bytes.NewReader(data)).Next()
}

// FuzzDecodeTrajectoryFrame: the reader must never panic, and any frame it
// does accept must be self-consistent with finite coordinates.
func FuzzDecodeTrajectoryFrame(f *testing.F) {
	f.Add([]byte("3\nwater\nO 0 0 0\nH 0.96 0 0\nH -0.24 0.93 0\n"))
	f.Add([]byte("1\nc\nO 1e308 -1e308 0.5\n"))
	f.Add([]byte("2\nc\nO 0 0 0\n"))         // truncated
	f.Add([]byte("1\nc\nO NaN 0 0\n"))       // non-finite
	f.Add([]byte("-1\nc\n"))                 // negative count
	f.Add([]byte("99999999999999\nc\n"))     // absurd count
	f.Add([]byte("1\nc\nXq 0 0 0\n"))        // unknown element
	f.Add([]byte("\n\n1\nc\nH 1 2 3 v v v")) // blank leaders + extra columns
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		if len(fr.Els) == 0 || len(fr.Els) != len(fr.Pos) {
			t.Fatalf("accepted frame with %d elements / %d positions", len(fr.Els), len(fr.Pos))
		}
		for _, p := range fr.Pos {
			for _, v := range []float64{p.X, p.Y, p.Z} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite coordinate %v", v)
				}
			}
		}
	})
}
