// Package scf implements the ground-state electronic-structure engine that
// stands in for the paper's all-electron DFT: a self-consistent-charge
// tight-binding model over the minimal Gaussian basis (see DESIGN.md §2).
// It has the full structure of an SCF DFT code — overlap matrix, generalized
// eigenproblem HC = SCε, density matrix, charge self-consistency, total
// energy, analytic nuclear gradients and, from a nuclear response, analytic
// Hessians (NuclearHessian) — plus a bonded reference force
// field (bond + angle terms parameterized to experimental vibrational
// frequencies) playing the role of the DFTB repulsive potential.
package scf

import (
	"fmt"
	"math"

	"qframan/internal/basis"
	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/structure"
)

// wolfsbergK is the Wolfsberg–Helmholz constant of the off-site Hamiltonian
// H⁰_μν = K/2·(ε_μ+ε_ν)·S_μν.
const wolfsbergK = 1.75

// Bond is a bond term ½k(r−r0)² + c(r−r0) of the repulsive potential. The
// linear coefficient c is fitted by CalibrateRestForces so the reference
// geometry is a stationary point of the total energy — the same role the
// fitted repulsive potential plays in DFTB parameterizations.
type Bond struct {
	I, J int
	K    float64 // hartree/bohr²
	R0   float64 // bohr (reference geometry)
	C    float64 // hartree/bohr, linear force-balance term
}

// Angle is a cosine-harmonic angle term ½k(cosθ−cos0)² + c(cosθ−cos0)
// centered at atom J.
type Angle struct {
	I, J, Kk int
	K        float64 // hartree
	Cos0     float64
	C        float64 // hartree, linear force-balance term
}

// Dihedral is a torsion term ½k·Δ² + c·Δ with Δ = wrap(φ−φ0) over the atoms
// I–J–K–L (J–K the central bond). The harmonic acts on the angle itself —
// a cos-harmonic would have zero quadratic stiffness at planar equilibria
// (φ0 = 0 or π), leaving amide out-of-plane wags unstable. Torsions are the
// softest internal coordinates; without them the fitted linear terms can
// leave spurious negative curvature along methyl and backbone rotations.
type Dihedral struct {
	I, J, Kk, L int
	K           float64 // hartree/rad²
	Phi0        float64 // radians
	C           float64 // hartree/rad, linear force-balance term
}

// dihedralAngle returns the torsion angle φ ∈ (−π, π] for positions a-b-c-d.
func dihedralAngle(a, b, c, d geom.Vec3) float64 {
	b1 := b.Sub(a)
	b2 := c.Sub(b)
	b3 := d.Sub(c)
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	if n1.Norm() < 1e-12 || n2.Norm() < 1e-12 {
		return 0 // collinear chain: torsion undefined
	}
	return math.Atan2(b2.Norm()*b1.Dot(n2), n1.Dot(n2))
}

// dihedralDelta returns wrap(φ−φ0) ∈ (−π, π], smooth around Δ = 0 even when
// φ0 sits at the ±π branch cut.
func dihedralDelta(a, b, c, d geom.Vec3, phi0 float64) float64 {
	phi := dihedralAngle(a, b, c, d)
	return math.Atan2(math.Sin(phi-phi0), math.Cos(phi-phi0))
}

// dihedralDeltaGrad returns ∂Δ/∂(a,b,c,d) for Δ = wrap(φ−φ0), which is ∂φ
// wherever Δ is smooth: the closed form of Blondel and Karplus (J. Comput.
// Chem. 17, 1132 (1996)) with n₁ = b₁×b₂, n₂ = b₂×b₃ the two plane normals,
//
//	∂φ/∂a = −|b₂|/|n₁|²·n₁,  ∂φ/∂d = |b₂|/|n₂|²·n₂,
//	∂φ/∂b = −∂φ/∂a + (b₁·b₂)/(|b₂||n₁|²)·n₁ + (b₃·b₂)/(|b₂||n₂|²)·n₂,
//	∂φ/∂c = −∂φ/∂d − (b₁·b₂)/(|b₂||n₁|²)·n₁ − (b₃·b₂)/(|b₂||n₂|²)·n₂,
//
// which sum to zero. A collinear chain, where dihedralAngle returns 0 for an
// undefined torsion, has zero gradient.
func dihedralDeltaGrad(a, b, c, d geom.Vec3) [4]geom.Vec3 {
	b1, b2, b3 := b.Sub(a), c.Sub(b), d.Sub(c)
	n1, n2 := b1.Cross(b2), b2.Cross(b3)
	if n1.Norm() < 1e-12 || n2.Norm() < 1e-12 {
		return [4]geom.Vec3{}
	}
	nn1, nn2, r2 := n1.Dot(n1), n2.Dot(n2), b2.Norm()
	ga := n1.Scale(-r2 / nn1)
	gd := n2.Scale(r2 / nn2)
	t := n1.Scale(b1.Dot(b2) / (r2 * nn1)).Add(n2.Scale(b3.Dot(b2) / (r2 * nn2)))
	return [4]geom.Vec3{ga, t.Sub(ga), gd.Add(t).Scale(-1), gd}
}

// Model is a molecular fragment ready for SCF at a given geometry. The
// force-field equilibria (R0, Cos0) are frozen at the reference geometry the
// model was created with, so displaced evaluations (finite-difference
// Hessians, the paper's per-displacement worker step) see a consistent
// potential energy surface.
type Model struct {
	Els []constants.Element
	Pos []geom.Vec3 // bohr (current geometry)

	Basis *basis.Set
	S     *linalg.Matrix
	H0    *linalg.Matrix
	Gamma *linalg.Matrix // atom×atom Klopman–Ohno matrix
	Dip   [3]*linalg.Matrix
	// dS[i·n+j], i < j, is ∂S_ij/∂R of the atom of function i,
	// basis.OverlapDeriv of the pair (the atom of j sees the negative); zero on
	// a same-atom pair. Entries on and below the diagonal are unused.
	dS []geom.Vec3

	Zval      []float64 // valence charge per atom
	Bonds     []Bond
	Angles    []Angle
	Dihedrals []Dihedral

	// Ops receives the BLAS accounting for this model's computations.
	Ops *linalg.Ops
}

// NewModel builds a model from elements and positions in ångströms. Bond
// and angle terms are detected from covalent radii at this reference
// geometry and their equilibria frozen there.
func NewModel(els []constants.Element, posAngstrom []geom.Vec3) (*Model, error) {
	if len(els) == 0 || len(els) != len(posAngstrom) {
		return nil, fmt.Errorf("scf: %d elements vs %d positions", len(els), len(posAngstrom))
	}
	for _, el := range els {
		if !el.Valid() {
			return nil, fmt.Errorf("scf: invalid element %v", el)
		}
	}
	pos := make([]geom.Vec3, len(posAngstrom))
	for i, p := range posAngstrom {
		pos[i] = p.Scale(constants.BohrPerAngstrom)
	}
	m := &Model{Els: els, Pos: pos, Ops: &linalg.DefaultOps}
	m.Zval = make([]float64, len(els))
	for i, el := range els {
		m.Zval[i] = float64(el.NumValence())
	}
	if m.numElectrons()%2 != 0 {
		return nil, fmt.Errorf("scf: fragment has odd electron count %d (open shells unsupported)", m.numElectrons())
	}
	m.buildFF(posAngstrom)
	m.rebuild()
	return m, nil
}

func (m *Model) numElectrons() int {
	n := 0
	for _, el := range m.Els {
		n += el.NumValence()
	}
	return n
}

// NumAtoms returns the atom count.
func (m *Model) NumAtoms() int { return len(m.Els) }

// buildFF detects bonds, angles, and dihedrals at the reference geometry
// (Å input) and sets equilibrium values from it.
func (m *Model) buildFF(posAngstrom []geom.Vec3) {
	bonds := structure.SubsetBonds(m.Els, posAngstrom)
	adj := make([][]int, len(m.Els))
	for _, b := range bonds {
		i, j := b[0], b[1]
		r0 := m.Pos[i].Dist(m.Pos[j]) // bohr
		m.Bonds = append(m.Bonds, Bond{
			I: i, J: j,
			K:  bondForceConstant(m.Els[i], m.Els[j], posAngstrom[i].Dist(posAngstrom[j])),
			R0: r0,
		})
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	for j, nbrs := range adj {
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				i, k := nbrs[a], nbrs[b]
				u := m.Pos[i].Sub(m.Pos[j]).Normalize()
				v := m.Pos[k].Sub(m.Pos[j]).Normalize()
				m.Angles = append(m.Angles, Angle{
					I: i, J: j, Kk: k,
					K:    angleForceConstant(m.Els[i], m.Els[j], m.Els[k]),
					Cos0: u.Dot(v),
				})
			}
		}
	}
	// Dihedral terms: one per i–j–k–l path through each central bond j–k.
	// They act only on the torsional coordinate, so they stabilize methyl
	// and backbone rotations without stiffening stretches or bends.
	const torsionK = 0.06 // hartree
	for j := range adj {
		for _, k := range adj[j] {
			if k <= j {
				continue
			}
			for _, i := range adj[j] {
				if i == k {
					continue
				}
				for _, l := range adj[k] {
					if l == j || l == i {
						continue
					}
					m.Dihedrals = append(m.Dihedrals, Dihedral{
						I: i, J: j, Kk: k, L: l,
						K:    torsionK,
						Phi0: dihedralAngle(m.Pos[i], m.Pos[j], m.Pos[k], m.Pos[l]),
					})
				}
			}
		}
	}
}

// Displaced returns a model with atom a moved by delta (bohr) along axis
// (0=x, 1=y, 2=z) — one worker unit of the paper's displacement loop. It
// shares m's frozen force field and counters and rebuilds every
// geometry-dependent matrix at the displaced geometry; m is only read.
func (m *Model) Displaced(atom, axis int, delta float64) *Model {
	md := *m
	md.Pos = append([]geom.Vec3(nil), m.Pos...)
	switch axis {
	case 0:
		md.Pos[atom].X += delta
	case 1:
		md.Pos[atom].Y += delta
	case 2:
		md.Pos[atom].Z += delta
	default:
		panic("scf: axis out of range")
	}
	md.rebuild()
	return &md
}

// rebuild recomputes the geometry-dependent electronic matrices.
func (m *Model) rebuild() {
	m.Basis = basis.ForAtoms(m.Els, m.Pos)
	m.S = m.Basis.OverlapMatrix()
	m.Dip = m.Basis.DipoleMatrices()
	n := m.Basis.Size()
	m.H0 = linalg.NewMatrix(n, n)
	m.dS = make([]geom.Vec3, n*n)
	for i := 0; i < n; i++ {
		fi := &m.Basis.Funcs[i]
		m.H0.Set(i, i, fi.OnsiteE)
		for j := i + 1; j < n; j++ {
			fj := &m.Basis.Funcs[j]
			var v float64
			if fi.Atom != fj.Atom {
				v = 0.5 * wolfsbergK * (fi.OnsiteE + fj.OnsiteE) * m.S.At(i, j)
				m.dS[i*n+j] = basis.OverlapDeriv(fi, fj)
			}
			// On-atom off-diagonal blocks vanish by orthogonality of the
			// s/p functions on the same center (S is the identity there).
			m.H0.Set(i, j, v)
			m.H0.Set(j, i, v)
		}
	}
	// Klopman–Ohno gamma.
	na := len(m.Els)
	m.Gamma = linalg.NewMatrix(na, na)
	for a := 0; a < na; a++ {
		ua := m.Els[a].HubbardU()
		m.Gamma.Set(a, a, ua)
		for b := a + 1; b < na; b++ {
			g := klopmanOhno(m.Pos[a].Dist(m.Pos[b]), ua, m.Els[b].HubbardU())
			m.Gamma.Set(a, b, g)
			m.Gamma.Set(b, a, g)
		}
	}
}

func klopmanOhno(r, ua, ub float64) float64 {
	c := 0.5 * (1/ua + 1/ub)
	return 1 / math.Sqrt(r*r+c*c)
}
