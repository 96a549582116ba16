// Package poisson solves the electrostatic Poisson equation ∇²v = −4πρ on a
// uniform grid — the third phase of the paper's per-displacement DFPT cycle
// (§V-A: the response electrostatic potential v⁽¹⁾_es from the response
// density n⁽¹⁾). Boundary values come from a monopole+dipole expansion of
// the charge on the grid; the interior is solved directly, with no
// iteration and no tolerance.
//
// # Why the solve is exact
//
// On a uniform grid with Dirichlet boundaries the 7-point operator −∇²_h is
// a Kronecker sum of three 1-D second-difference matrices, and each of
// those is diagonalised by the type-I sine matrix
//
//	S_n[k][j] = √(2/(n+1)) · sin(π(k+1)(j+1)/(n+1)),   S_n = S_nᵀ = S_n⁻¹,
//
// with eigenvalues (2/h²)(1 − cos(πk/(n+1))), k = 1…n. So with
// S = S_x⊗S_y⊗S_z and Λ the sum of the three per-axis eigenvalues,
//
//	u = S Λ⁻¹ S b
//
// is the solution of −∇²_h u = b to rounding (the fast-diagonalisation
// method). Fragment grids have 10–60 points per axis, rarely a power of two,
// so the sine matrices are applied densely as small matrix products over
// grid lines — one code path for every shape, no FFT and no size switch —
// at half the dense cost thanks to their mirror symmetry (see axis).
//
// # Determinism
//
// Every output element of a transform is a fixed-order sum computed by one
// chunk; chunks only partition the lines. Nothing is reduced across chunks
// except the four boundary moments (q, p), whose per-chunk partials combine
// in ascending chunk order. Results are therefore bit-identical at any
// kernel width (DESIGN.md §7).
package poisson

import (
	"errors"
	"fmt"
	"math"

	"qframan/internal/geom"
	"qframan/internal/grid"
	"qframan/internal/par"
)

// SolverTag names the numerics of this package. internal/store appends it to
// the content key of every grid-mode job, so a record computed by another
// Poisson solver (the conjugate-gradient iteration this package used before)
// is never served to this one. Bump it with any change that moves results.
const SolverTag = "poisson/dst1"

// ErrNonFinite reports a density or potential containing NaN or ±Inf — the
// one way a direct solve can fail. It carries no Transient marker, so
// faults.Classify treats it as deterministic: retrying reproduces it.
var ErrNonFinite = errors.New("poisson: non-finite density or potential")

// Options is an ignored placeholder.
//
// Deprecated: the direct solver has no tolerance and no iteration bound. The
// type, its fields and Solve survive only because bench/microscope.go
// compiles against them and bench/ is frozen while a performance claim is
// measured; the next benchmark PR should call NewPlan/Plan.Solve and drop
// Options, Solve and the poisson.iters metric.
type Options struct {
	Tol     float64
	MaxIter int
}

// Solve is NewPlan(g).Solve for callers that solve once per grid. The
// iteration count it returns is always 0. See Options.
func Solve(g *grid.Grid, rho []float64, _ Options) ([]float64, int, error) {
	p, err := NewPlan(g)
	if err != nil {
		return nil, 0, err
	}
	v := make([]float64, g.NumPoints())
	if err := p.Solve(rho, v); err != nil {
		return nil, 0, err
	}
	return v, 0, nil
}

// Chunk floors, pure functions of the grid shape so the chunk layout never
// depends on the kernel width: boundaryWork in grid points, dstWork in
// multiply-adds of transform work. Either is some tens of µs of work — what
// it takes to repay waking a parked worker — so a small fragment grid (the
// 2 352-point benchmark water solves in ~30 µs) runs every stage inline and
// only production-resolution grids fan out. zMinCols keeps a z-stage column
// chunk at least four cache lines wide.
const (
	boundaryWork = 1 << 14
	dstWork      = 1 << 17
	zMinCols     = 32
)

// minChunk returns the par chunk floor that splits n items costing unit
// work each into equal chunks of at least floor work: one chunk while the
// whole is under 2·floor.
func minChunk(n, unit, floor int) int {
	chunks := max(1, n*unit/floor)
	return (n + chunks - 1) / chunks
}

// Plan is everything about a Poisson solve that depends only on the grid:
// the per-axis sine transforms, the inverse eigenvalues, the boundary-face
// geometry and all scratch. It is built once per fragment geometry (the
// paper's set-up/loop split) and then solves any number of densities
// without allocating. A Plan is not safe for concurrent use.
type Plan struct {
	g          grid.Grid
	ax, ay, az axis      // transforms over the interior points of each axis
	invEig     []float64 // 1/Λ, interior layout

	// Boundary moments: point coordinates about the grid centre, per axis.
	xs, ys, zs []float64
	// Boundary faces: full-layout index of every boundary point and its
	// expansion coefficients {1/r, dx/r³, dy/r³, dz/r³} about the centre.
	faceIdx  []int32
	faceCoef [][4]float64

	// Scratch. a and b hold the interior in compact layout (x fastest) and
	// the stages ping-pong between them; t is the transforms' fold space.
	a, b, t []float64
	qPart   []float64
	pPart   []geom.Vec3
	bad     []bool // per-chunk non-finite flags of the last stage

	// Arguments of the solve in flight, read by the kernels; transposed
	// selects SolveTranspose's interior load.
	rho, v     []float64
	transposed bool

	// Kernel bodies, bound once so passing them to par allocates nothing.
	momentsFn, forwardFn, zFn, inverseFn func(c, lo, hi int)

	lineChunk, planeChunk, colChunk int
}

// NewPlan builds the plan for g, which needs at least one interior point
// (three points per axis).
func NewPlan(g *grid.Grid) (*Plan, error) {
	if g.Nx < 3 || g.Ny < 3 || g.Nz < 3 {
		return nil, fmt.Errorf("poisson: grid %d×%d×%d must have at least 3 points per axis", g.Nx, g.Ny, g.Nz)
	}
	p := &Plan{g: *g, ax: newAxis(g.Nx-2, g.H), ay: newAxis(g.Ny-2, g.H), az: newAxis(g.Nz-2, g.H)}
	mx, my, mz := p.ax.m, p.ay.m, p.az.m
	plane := mx * my
	m := plane * mz
	p.invEig = make([]float64, m)
	for kz, i := 0, 0; kz < mz; kz++ {
		for ky := 0; ky < my; ky++ {
			for kx := 0; kx < mx; kx++ {
				p.invEig[i] = 1 / (p.ax.eig[kx] + p.ay.eig[ky] + p.az.eig[kz])
				i++
			}
		}
	}

	// Expansion origin: the grid centre (robust also for zero net charge).
	centred := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (float64(i) - float64(n-1)/2) * g.H
		}
		return xs
	}
	p.xs, p.ys, p.zs = centred(g.Nx), centred(g.Ny), centred(g.Nz)
	// Every boundary point exactly once: full z-faces, then y-faces without
	// the z-edges, then x-faces without the y- and z-edges.
	nFace := g.NumPoints() - m
	p.faceIdx = make([]int32, 0, nFace)
	p.faceCoef = make([][4]float64, 0, nFace)
	addFace := func(ix, iy, iz int) {
		d := geom.V(p.xs[ix], p.ys[iy], p.zs[iz])
		r := d.Norm() // > 0: the centre is never a boundary point
		r3 := r * r * r
		p.faceIdx = append(p.faceIdx, int32(g.Index(ix, iy, iz)))
		p.faceCoef = append(p.faceCoef, [4]float64{1 / r, d.X / r3, d.Y / r3, d.Z / r3})
	}
	for iy := 0; iy < g.Ny; iy++ {
		for ix := 0; ix < g.Nx; ix++ {
			addFace(ix, iy, 0)
			addFace(ix, iy, g.Nz-1)
		}
	}
	for iz := 1; iz < g.Nz-1; iz++ {
		for ix := 0; ix < g.Nx; ix++ {
			addFace(ix, 0, iz)
			addFace(ix, g.Ny-1, iz)
		}
	}
	for iz := 1; iz < g.Nz-1; iz++ {
		for iy := 1; iy < g.Ny-1; iy++ {
			addFace(0, iy, iz)
			addFace(g.Nx-1, iy, iz)
		}
	}

	p.a = make([]float64, m)
	p.b = make([]float64, m)
	p.t = make([]float64, m)
	p.lineChunk = minChunk(g.Ny*g.Nz, g.Nx, boundaryWork)
	nMoment := par.Chunks(g.Ny*g.Nz, p.lineChunk)
	p.qPart = make([]float64, nMoment)
	p.pPart = make([]geom.Vec3, nMoment)
	p.planeChunk = minChunk(mz, plane*(p.ax.work()+p.ay.work()), dstWork)
	p.colChunk = max(zMinCols, minChunk(plane, 2*p.az.work(), dstWork))
	p.bad = make([]bool, par.Chunks(mz, p.planeChunk))

	p.momentsFn = p.moments
	p.forwardFn, p.zFn, p.inverseFn = p.forwardXY, p.solveZ, p.inverseYX
	return p, nil
}

// Solve writes into v (len = grid points) the potential of the charge
// density rho (same layout): multipole Dirichlet values on the boundary
// faces, the direct solution of the 7-point equation inside. In the steady
// state it allocates nothing. On ErrNonFinite v holds garbage.
func (p *Plan) Solve(rho, v []float64) error {
	n := p.g.NumPoints()
	if len(rho) != n || len(v) != n {
		return fmt.Errorf("poisson: rho has %d entries and v %d, grid has %d points", len(rho), len(v), n)
	}
	p.rho, p.v = rho, v
	ok := p.solve()
	p.rho, p.v = nil, nil
	if !ok {
		return fmt.Errorf("%w on the %d×%d×%d grid", ErrNonFinite, p.g.Nx, p.g.Ny, p.g.Nz)
	}
	return nil
}

// SolveTranspose writes into out (len = grid points) Gᵀ·a, G the linear map
// Solve applies to a density: ⟨a, G·ρ⟩ = ⟨Gᵀ·a, ρ⟩ for every ρ. G is not
// symmetric — the boundary values are a monopole+dipole expansion of the
// whole density, a rank-4 map onto the faces — so the transpose is its own
// solve. With K = (−∇²_h)⁻¹ on the interior (symmetric: S Λ⁻¹ S), N the
// coupling of interior points to their face neighbours and B the expansion,
//
//	v_int = 4π·K·ρ_int + K·N·B·ρ/h²,  v_face = B·ρ,
//
// so with y = K·a_int and z = a_face + Nᵀ·y/h² the transpose is
// 4π·y on the interior plus Bᵀ·z on every point: the four moments of z
// against the face coefficients, spread back as charge and dipole. The
// interior solve is Solve's, on the same kernels; the rest is O(surface)
// plus one pass over the points, in fixed order, so the result is
// bit-identical at any kernel width. It allocates nothing; on ErrNonFinite
// out holds garbage.
func (p *Plan) SolveTranspose(a, out []float64) error {
	g := &p.g
	n := g.NumPoints()
	if len(a) != n || len(out) != n {
		return fmt.Errorf("poisson: a has %d entries and out %d, grid has %d points", len(a), len(out), n)
	}
	p.rho, p.v, p.transposed = a, out, true
	plane := p.ax.m * p.ay.m
	par.ForChunks("poisson_dst", p.az.m, p.planeChunk, p.forwardFn)
	par.ForChunks("poisson_dst", plane, p.colChunk, p.zFn)
	par.ForChunks("poisson_dst", p.az.m, p.planeChunk, p.inverseFn)
	p.rho, p.v, p.transposed = nil, nil, false
	for _, bad := range p.bad {
		if bad {
			return fmt.Errorf("%w on the %d×%d×%d grid", ErrNonFinite, g.Nx, g.Ny, g.Nz)
		}
	}
	// out holds y inside; z = a on the faces plus y/h² from each face
	// point's one interior neighbour (edges and corners have none).
	for _, f := range p.faceIdx {
		out[f] = a[f]
	}
	mx, my, mz := p.ax.m, p.ay.m, p.az.m
	sy, sz := g.Nx, g.Nx*g.Ny
	invH2 := 1 / (g.H * g.H)
	for kz := 0; kz < mz; kz++ {
		for ky := 0; ky < my; ky++ {
			i0 := g.Index(1, ky+1, kz+1)
			line := out[i0 : i0+mx]
			out[i0-1] += line[0] * invH2
			out[i0+mx] += line[mx-1] * invH2
			if ky == 0 {
				addScaled(out[i0-sy:i0-sy+mx], line, invH2)
			}
			if ky == my-1 {
				addScaled(out[i0+sy:i0+sy+mx], line, invH2)
			}
			if kz == 0 {
				addScaled(out[i0-sz:i0-sz+mx], line, invH2)
			}
			if kz == mz-1 {
				addScaled(out[i0+sz:i0+sz+mx], line, invH2)
			}
		}
	}
	// Bᵀ·z: B[f][i] = w·(k0_f + k1_f·x_i + k2_f·y_i + k3_f·z_i).
	var m [4]float64
	for bi, k := range p.faceCoef {
		z := out[p.faceIdx[bi]]
		for j := range m {
			m[j] += z * k[j]
		}
	}
	w := g.Weight()
	for iz := 0; iz < g.Nz; iz++ {
		for iy := 0; iy < g.Ny; iy++ {
			inner := iz > 0 && iz < g.Nz-1 && iy > 0 && iy < g.Ny-1
			c := m[0] + m[2]*p.ys[iy] + m[3]*p.zs[iz]
			row := out[g.Index(0, iy, iz):][:g.Nx]
			for ix, x := range p.xs {
				b := w * (c + m[1]*x)
				if inner && ix > 0 && ix < g.Nx-1 {
					row[ix] = 4*math.Pi*row[ix] + b
				} else {
					row[ix] = b
				}
			}
		}
	}
	return nil
}

// solve runs the kernels on p.rho and p.v and reports whether the interior
// came out finite. A non-finite density always shows there: it reaches every
// interior line through the moments and the boundary values folded into b.
func (p *Plan) solve() bool {
	// Boundary moments: a chunked four-component reduction over x-lines,
	// partials combined in ascending chunk order.
	par.ForChunks("poisson_boundary", p.g.Ny*p.g.Nz, p.lineChunk, p.momentsFn)
	var q float64
	var d geom.Vec3
	for c := range p.qPart {
		q += p.qPart[c]
		d = d.Add(p.pPart[c])
	}
	// Dirichlet values: O(surface), far below what a dispatch repays.
	for bi, k := range p.faceCoef {
		p.v[p.faceIdx[bi]] = q*k[0] + d.X*k[1] + d.Y*k[2] + d.Z*k[3]
	}

	// u = S Λ⁻¹ S b in three regions: xy-transforms plane by plane, the
	// z-transform pair with the eigenvalue division between them column
	// chunk by column chunk, xy-transforms back plane by plane.
	plane := p.ax.m * p.ay.m
	par.ForChunks("poisson_dst", p.az.m, p.planeChunk, p.forwardFn)
	par.ForChunks("poisson_dst", plane, p.colChunk, p.zFn)
	par.ForChunks("poisson_dst", p.az.m, p.planeChunk, p.inverseFn)
	for _, bad := range p.bad {
		if bad {
			return false
		}
	}
	return true
}

// moments accumulates the charge and dipole about the centre over x-lines
// [lo, hi) (line l is the grid row iy = l mod Ny, iz = l div Ny).
func (p *Plan) moments(c, lo, hi int) {
	nx, ny := p.g.Nx, p.g.Ny
	var q float64
	var d geom.Vec3
	for l := lo; l < hi; l++ {
		var s, sx float64
		for i, r := range p.rho[l*nx : (l+1)*nx] {
			s += r
			sx += r * p.xs[i]
		}
		q += s
		d.X += sx
		d.Y += s * p.ys[l%ny]
		d.Z += s * p.zs[l/ny]
	}
	w := p.g.Weight()
	p.qPart[c], p.pPart[c] = q*w, d.Scale(w)
}

// forwardXY builds b = 4πρ + (boundary neighbours)/h² for interior planes
// [lo, hi) — b = a on the interior for SolveTranspose — and applies S_x then
// S_y to each plane. A line has boundary neighbours only at its two x-ends,
// and along y (z) only in the first or last interior y (z) layer. Result in
// p.b.
func (p *Plan) forwardXY(_, lo, hi int) {
	g, rho, v := &p.g, p.rho, p.v
	mx, my, mz := p.ax.m, p.ay.m, p.az.m
	plane := mx * my
	sy, sz := g.Nx, g.Nx*g.Ny
	invH2 := 1 / (g.H * g.H)
	for kz := lo; kz < hi; kz++ {
		a := p.a[kz*plane : (kz+1)*plane]
		b := p.b[kz*plane : (kz+1)*plane]
		t := p.t[kz*plane : (kz+1)*plane]
		for ky := 0; ky < my; ky++ {
			i0 := g.Index(1, ky+1, kz+1)
			line := b[ky*mx : (ky+1)*mx]
			if p.transposed {
				copy(line, rho[i0:i0+mx])
				continue
			}
			for j, r := range rho[i0 : i0+mx] {
				line[j] = 4 * math.Pi * r
			}
			line[0] += v[i0-1] * invH2
			line[mx-1] += v[i0+mx] * invH2
			if ky == 0 {
				addScaled(line, v[i0-sy:], invH2)
			}
			if ky == my-1 {
				addScaled(line, v[i0+sy:], invH2)
			}
			if kz == 0 {
				addScaled(line, v[i0-sz:], invH2)
			}
			if kz == mz-1 {
				addScaled(line, v[i0+sz:], invH2)
			}
		}
		p.ax.apply(a, b, t, 1, mx, my)
		p.ay.apply(b, a, t, mx, 1, mx)
	}
}

// solveZ applies S_z, divides by the eigenvalues and applies S_z again on
// the plane columns [lo, hi): p.b → p.a → p.b.
func (p *Plan) solveZ(_, lo, hi int) {
	plane := p.ax.m * p.ay.m
	a, b, t := p.a[lo:], p.b[lo:], p.t[lo:]
	n := hi - lo
	p.az.apply(a, b, t, plane, 1, n)
	for kz := 0; kz < p.az.m; kz++ {
		row := a[kz*plane : kz*plane+n]
		for i, e := range p.invEig[kz*plane+lo : kz*plane+hi] {
			row[i] *= e
		}
	}
	p.az.apply(b, a, t, plane, 1, n)
}

// inverseYX applies S_y then S_x to planes [lo, hi) of p.b and writes the
// lines into the interior of v.
func (p *Plan) inverseYX(c, lo, hi int) {
	mx, my := p.ax.m, p.ay.m
	plane := mx * my
	var nf float64
	for kz := lo; kz < hi; kz++ {
		a := p.a[kz*plane : (kz+1)*plane]
		b := p.b[kz*plane : (kz+1)*plane]
		t := p.t[kz*plane : (kz+1)*plane]
		p.ay.apply(a, b, t, mx, 1, mx)
		p.ax.apply(b, a, t, 1, mx, my)
		for ky := 0; ky < my; ky++ {
			i0 := p.g.Index(1, ky+1, kz+1)
			for j, u := range b[ky*mx : (ky+1)*mx] {
				p.v[i0+j] = u
				nf += u - u // 0 for finite u, NaN for NaN and ±Inf
			}
		}
	}
	p.bad[c] = nf != 0
}

// axis is the type-I sine transform over the m interior points of one grid
// axis, S[k][j] = √(2/(m+1))·sin(π(k+1)(j+1)/(m+1)). S is symmetric and its
// own inverse, so one procedure serves both directions. The mirror symmetry
// S[k][m−1−j] = (−1)^k·S[k][j] halves its cost: fold the input into its
// symmetric part e_j = x_j + x_{m−1−j} and antisymmetric part
// o_j = x_j − x_{m−1−j}; then the even-k outputs are ce·e and the odd-k
// outputs co·o, two half-size products instead of one full one.
type axis struct {
	m, he, ho int       // he = ⌈m/2⌉ even-k modes, ho = ⌊m/2⌋ odd-k modes
	ce, co    []float64 // ce[a][j] = S[2a][j] (he×he), co[a][j] = S[2a+1][j] (ho×ho)
	eig       []float64 // eigenvalues of the Dirichlet second difference, by k
}

// newAxis tabulates the transform for m interior points at spacing h.
// Entries index a table of sin(πt/(m+1)) by (k+1)(j+1) mod 2(m+1) — exact
// integer argument reduction — and the eigenvalues (2/h²)(1 − cos θ_k) are
// evaluated as (4/h²)·sin²(θ_k/2), which keeps full relative accuracy for
// the smallest ones.
func newAxis(m int, h float64) axis {
	ax := axis{m: m, he: (m + 1) / 2, ho: m / 2}
	period := 2 * (m + 1)
	tab := make([]float64, period)
	norm := math.Sqrt(2 / float64(m+1))
	for t := range tab {
		tab[t] = norm * math.Sin(math.Pi*float64(t)/float64(m+1))
	}
	s := func(k, j int) float64 { return tab[(k+1)*(j+1)%period] }
	ax.ce = make([]float64, ax.he*ax.he)
	ax.co = make([]float64, ax.ho*ax.ho)
	for a := 0; a < ax.he; a++ {
		for j := 0; j < ax.he; j++ {
			ax.ce[a*ax.he+j] = s(2*a, j)
		}
	}
	for a := 0; a < ax.ho; a++ {
		for j := 0; j < ax.ho; j++ {
			ax.co[a*ax.ho+j] = s(2*a+1, j)
		}
	}
	ax.eig = make([]float64, m)
	for k := range ax.eig {
		half := math.Sin(math.Pi * float64(k+1) / float64(period))
		ax.eig[k] = 4 * half * half / (h * h)
	}
	return ax
}

// work is the multiply-adds one transformed element costs.
func (ax *axis) work() int { return ax.he*ax.he + ax.ho*ax.ho }

// apply transforms down m rows of n elements — row r, element i at
// r·rs + i·es — so that row k of out = Σ_j S[k][j]·(row j of in). Along y
// and z the rows are grid lines (es = 1); along x the "rows" are the x
// positions of a plane's lines (rs = 1, es = the line length), which keeps
// the inner loops as long as the plane is wide whatever the axis. fold is
// scratch of the same shape; the three must not overlap.
func (ax *axis) apply(out, in, fold []float64, rs, es, n int) {
	m, he, ho := ax.m, ax.he, ax.ho
	last := (n-1)*es + 1 // extent of one row
	for j := 0; j < ho; j++ {
		top, bot := in[j*rs:j*rs+last], in[(m-1-j)*rs:(m-1-j)*rs+last]
		e, o := fold[j*rs:j*rs+last], fold[(he+j)*rs:(he+j)*rs+last]
		for i := 0; i < last; i += es {
			e[i] = top[i] + bot[i]
			o[i] = top[i] - bot[i]
		}
	}
	if he > ho {
		mid, e := in[ho*rs:ho*rs+last], fold[ho*rs:ho*rs+last]
		for i := 0; i < last; i += es {
			e[i] = mid[i]
		}
	}
	for a := 0; a < he; a++ {
		lincomb(out[2*a*rs:2*a*rs+last], ax.ce[a*he:(a+1)*he], fold, rs, es)
	}
	for a := 0; a < ho; a++ {
		lincomb(out[(2*a+1)*rs:(2*a+1)*rs+last], ax.co[a*ho:(a+1)*ho], fold[he*rs:], rs, es)
	}
}

// lincomb sets out[i] = Σ_j coef[j]·src[j·rs+i] for i = 0, es, 2es, … <
// len(out): a linear combination of len(coef) rows. Four rows are combined
// per pass; each element's sum associates in ascending j in groups of four,
// whatever the chunking.
func lincomb(out, coef, src []float64, rs, es int) {
	n, m := len(out), len(coef)
	j := 0
	if m >= 4 {
		c0, c1, c2, c3 := coef[0], coef[1], coef[2], coef[3]
		r0, r1, r2, r3 := src[:n], src[rs:rs+n], src[2*rs:2*rs+n], src[3*rs:3*rs+n]
		for i := 0; i < n; i += es {
			out[i] = (c0*r0[i] + c1*r1[i]) + (c2*r2[i] + c3*r3[i])
		}
		j = 4
	} else {
		for i := 0; i < n; i += es {
			out[i] = 0
		}
	}
	for ; j+3 < m; j += 4 {
		c0, c1, c2, c3 := coef[j], coef[j+1], coef[j+2], coef[j+3]
		o := j * rs
		r0, r1, r2, r3 := src[o:o+n], src[o+rs:o+rs+n], src[o+2*rs:o+2*rs+n], src[o+3*rs:o+3*rs+n]
		for i := 0; i < n; i += es {
			out[i] += (c0*r0[i] + c1*r1[i]) + (c2*r2[i] + c3*r3[i])
		}
	}
	for ; j < m; j++ {
		c0 := coef[j]
		r0 := src[j*rs : j*rs+n]
		for i := 0; i < n; i += es {
			out[i] += c0 * r0[i]
		}
	}
}

// addScaled adds s·src[i] to dst[i] over len(dst).
func addScaled(dst, src []float64, s float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i] * s
	}
}
