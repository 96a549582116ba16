package scf

import (
	"fmt"

	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/par"
)

// CalibrateRestForces fits the linear internal-coordinate terms of the
// bonded reference potential so that the model's reference geometry becomes
// a (least-squares) stationary point of the total energy. This mirrors how
// DFTB repulsive potentials are fitted: the electronic band structure alone
// exerts residual forces at any given geometry; a linear term per bond and
// angle absorbs them, so finite-difference Hessians taken at the reference
// are free of rigid-rotation contamination.
//
// The model must be at its reference geometry (freshly built by NewModel).
// One SCF solve is performed, and its ground state returned: the linear terms
// are part of the repulsive energy alone, so it is the calibrated model's
// ground state as well.
func (m *Model) CalibrateRestForces(opt Options) (*Result, error) {
	res, err := NewWorkspace(m).Calibrate(m, opt)
	if err != nil {
		return nil, err
	}
	out := *res
	return &out, nil
}

// Calibrate is CalibrateRestForces in the workspace: the SCF solves in it
// (SolveRobust), the fit takes its scratch, and the ground state is the
// workspace's Result.
func (ws *Workspace) Calibrate(m *Model, opt Options) (*Result, error) {
	res, err := ws.SolveRobust(m, opt)
	if err != nil {
		return nil, fmt.Errorf("scf: calibration SCF: %w", err)
	}
	// Total gradient at the reference: the harmonic FF terms vanish there
	// (equilibria frozen at reference), so this is the electronic gradient
	// plus any existing linear terms (zero on a fresh model).
	d := &ws.der
	na := m.NumAtoms()
	forces := m.forcesInto(res, linalg.ResizeSlice(&d.v0, na), linalg.ResizeSlice(&d.grad, na),
		linalg.ResizeSlice(&d.partials, par.Chunks(m.Basis.Size(), pairChunk)*na))
	n3 := 3 * na
	g := linalg.ResizeSlice(&d.g, n3)
	for a, f := range forces {
		g[3*a] = -f.X
		g[3*a+1] = -f.Y
		g[3*a+2] = -f.Z
	}

	// Internal-coordinate gradient rows: B[t] = ∂(internal_t)/∂R.
	nt := len(m.Bonds) + len(m.Angles) + len(m.Dihedrals)
	if nt == 0 {
		return nil, fmt.Errorf("scf: no internal coordinates to calibrate")
	}
	b := linalg.Resize(&d.b, nt, n3)
	b.Zero()
	addVec := func(row int, atom int, v geom.Vec3) {
		b.Add(row, 3*atom, v.X)
		b.Add(row, 3*atom+1, v.Y)
		b.Add(row, 3*atom+2, v.Z)
	}
	for t, bd := range m.Bonds {
		d := m.Pos[bd.I].Sub(m.Pos[bd.J])
		u := d.Normalize()
		addVec(t, bd.I, u)
		addVec(t, bd.J, u.Scale(-1))
	}
	off := len(m.Bonds)
	for t, an := range m.Angles {
		u := m.Pos[an.I].Sub(m.Pos[an.J])
		w := m.Pos[an.Kk].Sub(m.Pos[an.J])
		ru, rw := u.Norm(), w.Norm()
		uh, wh := u.Scale(1/ru), w.Scale(1/rw)
		cosT := uh.Dot(wh)
		gi := wh.Sub(uh.Scale(cosT)).Scale(1 / ru)
		gk := uh.Sub(wh.Scale(cosT)).Scale(1 / rw)
		addVec(off+t, an.I, gi)
		addVec(off+t, an.Kk, gk)
		addVec(off+t, an.J, gi.Add(gk).Scale(-1))
	}
	off += len(m.Angles)
	for t, dh := range m.Dihedrals {
		g := dihedralDeltaGrad(m.Pos[dh.I], m.Pos[dh.J], m.Pos[dh.Kk], m.Pos[dh.L])
		for gi2, atom := range [4]int{dh.I, dh.J, dh.Kk, dh.L} {
			addVec(off+t, atom, g[gi2])
		}
	}

	// Least squares: minimize ‖g + Bᵀc‖² ⇒ (B·Bᵀ + λI)·c = −B·g.
	bbt := linalg.Resize(&d.bbt, nt, nt)
	linalg.Gemm(false, true, 1, b, b, 0, bbt)
	for i := 0; i < nt; i++ {
		bbt.Add(i, i, 1e-10)
	}
	c := linalg.ResizeSlice(&d.c, nt)
	linalg.Gemv(false, -1, b, g, 0, c)
	if err := linalg.SolveLinearInPlace(bbt, c); err != nil {
		return nil, fmt.Errorf("scf: calibration solve: %w", err)
	}
	for t := range m.Bonds {
		m.Bonds[t].C = c[t]
	}
	for t := range m.Angles {
		m.Angles[t].C = c[len(m.Bonds)+t]
	}
	for t := range m.Dihedrals {
		m.Dihedrals[t].C = c[off+t]
	}
	return res, nil
}
