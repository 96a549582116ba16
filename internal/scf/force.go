package scf

import (
	"math"

	"qframan/internal/geom"
	"qframan/internal/par"
)

// pairChunk is the row-chunk length of the overlap-derivative pair sum.
const pairChunk = 16

// Forces returns the analytic nuclear forces −dE/dR (hartree/bohr) for a
// converged field-free ground state. The gradient has the standard
// SCC-tight-binding structure: Hellmann–Feynman + Pulay terms through the
// overlap derivatives, the charge-fluctuation γ term, and the bonded
// reference potential.
func (m *Model) Forces(res *Result) []geom.Vec3 {
	na := m.NumAtoms()
	chunks := par.Chunks(m.Basis.Size(), pairChunk)
	return m.forcesInto(res, make([]float64, na), make([]geom.Vec3, na), make([]geom.Vec3, chunks*na))
}

// forcesInto is Forces on the caller's storage: v (N) for the potentials,
// grad (N), which it returns as the forces, and partials, one gradient per
// chunk of the pair sum (chunk c owns [c·N, (c+1)·N)). It clears what it
// accumulates into.
func (m *Model) forcesInto(res *Result, v []float64, grad, partials []geom.Vec3) []geom.Vec3 {
	na := m.NumAtoms()
	n := m.Basis.Size()
	chunks := par.Chunks(n, pairChunk)
	clear(grad)
	clear(partials)

	m.sccPotential(res.DeltaQ, v)
	// The O(n²) overlap-derivative pair sum dominates displacement
	// post-processing. It shards over basis rows i with one gradient
	// accumulator per chunk; partials are combined in ascending chunk order,
	// so the result is bit-identical for any kernel width (DESIGN.md §7).
	// The pool's dynamic chunk cursor absorbs the triangular row imbalance.
	par.ForChunks("scf_forces", n, pairChunk, func(c, lo, hi int) {
		g := partials[c*na : (c+1)*na]
		for i := lo; i < hi; i++ {
			fi := &m.Basis.Funcs[i]
			pRow, wRow := res.P.Row(i), res.W.Row(i)
			a, va, ei := fi.Atom, v[fi.Atom], fi.OnsiteE
			for j := i + 1; j < n; j++ {
				fj := &m.Basis.Funcs[j]
				b := fj.Atom
				if a == b {
					continue
				}
				ds := m.dS[i*n+j] // d S_ij / d R_a
				// Both (i,j) and (j,i) contribute identically: factor 2.
				coeff := 2 * (pRow[j]*0.5*wolfsbergK*(ei+fj.OnsiteE) -
					wRow[j] +
					pRow[j]*0.5*(va+v[b]))
				g[a] = g[a].Add(ds.Scale(coeff))
				g[b] = g[b].Sub(ds.Scale(coeff))
			}
		}
	})
	for c := 0; c < chunks; c++ { // ordered combine: chunk 0, 1, 2, …
		for a := range grad {
			grad[a] = grad[a].Add(partials[c*na+a])
		}
	}

	// Charge-fluctuation term: ½ Σ_ab Δq_a Δq_b dγ_ab/dR.
	for a := 0; a < na; a++ {
		ua := m.Els[a].HubbardU()
		for b := a + 1; b < na; b++ {
			d := m.Pos[a].Sub(m.Pos[b])
			r := d.Norm()
			c := 0.5 * (1/ua + 1/m.Els[b].HubbardU())
			dg := -1 / math.Pow(r*r+c*c, 1.5) // dγ/dR ÷ R direction handled below
			g := d.Scale(dg * res.DeltaQ[a] * res.DeltaQ[b])
			grad[a] = grad[a].Add(g)
			grad[b] = grad[b].Sub(g)
		}
	}

	m.addRepulsiveGradient(grad)

	for a := range grad {
		grad[a] = grad[a].Scale(-1)
	}
	return grad
}

// addRepulsiveGradient adds ∂E_rep/∂R of the bonded reference potential
// (harmonic plus fitted linear terms) to grad.
func (m *Model) addRepulsiveGradient(grad []geom.Vec3) {
	for _, bd := range m.Bonds {
		d := m.Pos[bd.I].Sub(m.Pos[bd.J])
		r := d.Norm()
		f := (bd.K*(r-bd.R0) + bd.C) / r
		grad[bd.I] = grad[bd.I].Add(d.Scale(f))
		grad[bd.J] = grad[bd.J].Sub(d.Scale(f))
	}
	for _, an := range m.Angles {
		u := m.Pos[an.I].Sub(m.Pos[an.J])
		w := m.Pos[an.Kk].Sub(m.Pos[an.J])
		ru, rw := u.Norm(), w.Norm()
		uh, wh := u.Scale(1/ru), w.Scale(1/rw)
		cosT := uh.Dot(wh)
		pref := an.K*(cosT-an.Cos0) + an.C
		// ∂cosθ/∂I = (ŵ − cosθ·û)/|u|, ∂cosθ/∂K = (û − cosθ·ŵ)/|w|.
		gi := wh.Sub(uh.Scale(cosT)).Scale(pref / ru)
		gk := uh.Sub(wh.Scale(cosT)).Scale(pref / rw)
		grad[an.I] = grad[an.I].Add(gi)
		grad[an.Kk] = grad[an.Kk].Add(gk)
		grad[an.J] = grad[an.J].Sub(gi.Add(gk))
	}
	for _, t := range m.Dihedrals {
		delta := dihedralDelta(m.Pos[t.I], m.Pos[t.J], m.Pos[t.Kk], m.Pos[t.L], t.Phi0)
		pref := t.K*delta + t.C
		if pref == 0 {
			continue
		}
		g := dihedralDeltaGrad(m.Pos[t.I], m.Pos[t.J], m.Pos[t.Kk], m.Pos[t.L])
		for gi2, atom := range [4]int{t.I, t.J, t.Kk, t.L} {
			grad[atom] = grad[atom].Add(g[gi2].Scale(pref))
		}
	}

}
