package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"qframan/internal/geom"
	"qframan/internal/structure"
)

// Input generation. The seed drives only per-atom jitter and random-walk
// displacement vectors — never box sizes, sequences, water counts or which
// molecules move — so the amount of work is comparable across seeds and a
// spread between seeds measures the host, not the input. Every generated
// system is passed through WriteText→ReadSystem, so the in-process workloads
// and the text-submitting serve-wave workload see bit-identical geometry and
// equal seeds give byte-identical WriteText output.

// jitterAmp is the per-axis amplitude (Å) of the seeded per-atom jitter that
// tells one seed's base system from another's. It is kept tiny on purpose:
// SCF and DFPT iteration counts are sensitive to geometry, and at 0.02 Å the
// CPU seconds of wb-gamma differed by 10 % between seeds (at 0.001 Å: 3 %,
// the same as repeating one seed). It is still a thousand fingerprint quanta
// (1e-6 Å), so every seed has its own content keys.
const jitterAmp = 0.001

// walkAmp is the per-axis amplitude (Å) of a walk step — the size of an MD
// step. Walk workloads average over dozens of frames per run, so the larger
// amplitude does not show in their spread.
const walkAmp = 0.01

// systemText renders a system in the WriteText form.
func systemText(sys *structure.System) (string, error) {
	var buf bytes.Buffer
	if err := sys.WriteText(&buf); err != nil {
		return "", fmt.Errorf("gen: write text: %w", err)
	}
	return buf.String(), nil
}

// quantize round-trips a system through its text form.
func quantize(sys *structure.System) (*structure.System, error) {
	txt, err := systemText(sys)
	if err != nil {
		return nil, err
	}
	out, err := structure.ReadSystem(bytes.NewReader([]byte(txt)))
	if err != nil {
		return nil, fmt.Errorf("gen: re-read text: %w", err)
	}
	return out, nil
}

// jittered returns base with every atom displaced by a seeded uniform jitter
// (structure.PerturbedTrajectory with every molecule moving), quantized.
func jittered(base *structure.System, seed int64) (*structure.System, error) {
	frames := structure.PerturbedTrajectory(base, structure.PerturbOptions{
		Frames: 2, MoveFrac: 1, Jitter: jitterAmp, Seed: seed,
	})
	sys, err := structure.ApplyFrame(base, frames[1])
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	return quantize(sys)
}

// genWaterBox is the nx×ny×nz liquid-density water box of wb-gamma,
// wb-resume, traj-warm, serve-wave and cluster-loop.
func genWaterBox(nx, ny, nz int, seed int64) (*structure.System, error) {
	return jittered(structure.BuildWaterBox(nx, ny, nz, geom.Vec3{}), seed)
}

// genTwoWaters is grid-2w's system: two waters 30 Å apart, far outside the
// λ = 4 Å pair threshold, so the decomposition is exactly two one-body
// fragments and no pair terms.
func genTwoWaters(seed int64) (*structure.System, error) {
	sys := structure.BuildWaterBox(1, 1, 1, geom.Vec3{})
	sys.Merge(structure.BuildWaterBox(1, 1, 1, geom.V(30, 0, 0)))
	return jittered(sys, seed)
}

// Solvated-peptide shape of pep-solv: one capped glycine residue in a 1.5 Å
// water pad (2.4 Å exclusion, the repository's usual value).
const (
	pepSequence  = "G"
	pepPad       = 1.5
	pepExclusion = 2.4
)

func genSolvatedPeptide(seed int64) (*structure.System, error) {
	p, err := structure.BuildProteinFolded(pepSequence, 2)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	return jittered(structure.SolvateInWater(p, pepPad, pepExclusion), seed)
}

// walk is a fixed-schedule sequence of frames over a system's molecules:
// step k re-jitters exactly `moved` molecules, the ones at indices
// (k mod period)·moved + j, around their positions in the base system. Which
// molecules move (and with them how many fragments change content) is the
// same for every seed and repeats every `period` steps; the seed drives only
// the displacement vectors, and because every displacement is taken from the
// base position no frame drifts further than walkAmp per axis from it,
// however long the run. Unchosen molecules keep their coordinates
// bit-exactly, which is what the trajectory engine's fingerprint diff and
// the store's cross-job dedup key on.
type walk struct {
	base   *structure.System
	cur    *structure.System
	mols   []structure.Residue
	rng    *rand.Rand
	moved  int
	period int
	step   int
}

func newWalk(base *structure.System, moved, period int, seed int64) *walk {
	mols := append(append([]structure.Residue{}, base.Residues...), base.Waters...)
	return &walk{base: base, cur: base, mols: mols, rng: rand.New(rand.NewSource(seed)), moved: moved, period: period}
}

// next advances the walk one step and returns the new (quantized) system.
func (w *walk) next() (*structure.System, error) {
	out := &structure.System{
		Atoms:    append([]structure.Atom{}, w.cur.Atoms...),
		Residues: w.cur.Residues,
		Waters:   w.cur.Waters,
	}
	first := (w.step % w.period) * w.moved
	for j := 0; j < w.moved; j++ {
		m := w.mols[(first+j)%len(w.mols)]
		for i := m.First; i < m.First+m.Count; i++ {
			p := w.base.Atoms[i].Pos
			p.X += (2*w.rng.Float64() - 1) * walkAmp
			p.Y += (2*w.rng.Float64() - 1) * walkAmp
			p.Z += (2*w.rng.Float64() - 1) * walkAmp
			out.Atoms[i].Pos = p
		}
	}
	w.step++
	q, err := quantize(out)
	if err != nil {
		return nil, err
	}
	w.cur = q
	return q, nil
}
