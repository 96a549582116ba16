package dfpt

import (
	"fmt"

	"qframan/internal/grid"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/poisson"
	"qframan/internal/scf"
)

// gridEnv holds the real-space machinery for one fragment geometry: the
// integration grid, its batches with per-batch tabulated basis values and
// gradients, the Poisson plan, and the workspaces of grid mode's pair-space
// system (cycleEnv.solveGrid). Building it once per geometry and reusing it
// across ground states and field directions mirrors the paper's setup/loop
// split: once sized for a pair count, a solve allocates no matrix, vector or
// call list of its own. One goroutine at a time.
type gridEnv struct {
	g       *grid.Grid
	batches []batchData
	ops     *linalg.Ops

	// solveV1 is the Poisson plan's Solve. A field so the package's tests can
	// run the same solve against the CG reference.
	solveV1 func(rho, v []float64) error

	// orbPlan tabulates the ground state's orbitals on every batch — φ = X·C_b
	// and ∇_dφ = ∇_dX·C_b, C_b the rows of C for the batch's functions — four
	// GEMMs per batch, planned once; orbGemms and orbFLOPs are its totals.
	orbPlan            *linalg.BatchPlan
	orbGemms, orbFLOPs int64
	maxPts             int // points of the largest batch

	// The pair space, sized for np pairs (size): v holds np grid-length rows,
	// the pair densities ρ_q and then, in place, their potentials v_q; rho is
	// the row a Poisson solve reads; m is the np×np contraction M_d, which
	// every batch's bound GEMM accumulates into in batch order from the
	// batch's operands, views over tbuf and vbuf.
	np            int
	v, rho        []float64
	tbuf, vbuf    []float64
	m             *linalg.Matrix
	contractFLOPs int64

	// The arguments of the region in flight, read by the kernel bodies, which
	// are bound once so that passing them to par allocates nothing.
	c                            *linalg.Matrix
	pairL, pairR                 []int
	dir                          int
	cur                          *batchData
	orbitalsFn, densityFn, opsFn func(c, lo, hi int)
}

// batchData is one grid batch: the local basis tabulation X (points×nloc) and
// its Cartesian gradients, the index maps back to the global grid and basis,
// the ground state's orbitals on its points and its contraction operands.
type batchData struct {
	indices []int // global grid point indices
	funcs   []int // global basis function indices
	x       *linalg.Matrix
	gx      [3]*linalg.Matrix

	c    *linalg.Matrix    // nloc×n: the rows of C for funcs
	phi  *linalg.Matrix    // points×n: φ = X·C_b
	dphi [3]*linalg.Matrix // points×n: ∇_dφ
	// t and vb are points×np: τ^d_q and v_q on the batch's points;
	// contract adds w·tᵀ·vb into the environment's m.
	t, vb    *linalg.Matrix
	contract *linalg.GemmOp
}

func newGridEnv(m *scf.Model, opt Options) (*gridEnv, error) {
	if opt.GridSpacing <= 0 || opt.GridMargin <= 0 || opt.BatchSide <= 0 {
		return nil, fmt.Errorf("dfpt: invalid grid options (GridSpacing %g, GridMargin %g, BatchSide %d)",
			opt.GridSpacing, opt.GridMargin, opt.BatchSide)
	}
	g := grid.Cover(m.Pos, opt.GridMargin, opt.GridSpacing)
	plan, err := poisson.NewPlan(g)
	if err != nil {
		return nil, fmt.Errorf("dfpt: %w", err)
	}
	raw := g.Batches(opt.BatchSide, m.Basis)
	n := m.Basis.Size()
	env := &gridEnv{
		g:       g,
		batches: make([]batchData, len(raw)),
		ops:     m.Ops,
		solveV1: plan.Solve,
		rho:     make([]float64, g.NumPoints()),
	}
	// Tabulation is the expensive part of every displaced geometry's setup;
	// batches are independent (each writes only env.batches[bi]), so it
	// shards across the kernel pool.
	par.For("grid_tabulate", len(raw), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := raw[bi]
			npts, nloc := len(b.Indices), len(b.Funcs)
			x := linalg.NewMatrix(npts, nloc)
			var gx, dphi [3]*linalg.Matrix
			for d := range gx {
				gx[d] = linalg.NewMatrix(npts, nloc)
				dphi[d] = linalg.NewMatrix(npts, n)
			}
			for p, idx := range b.Indices {
				pt := g.Point(idx)
				for c, fi := range b.Funcs {
					f := &m.Basis.Funcs[fi]
					x.Set(p, c, f.ValueAt(pt))
					gr := f.GradAt(pt)
					gx[0].Set(p, c, gr.X)
					gx[1].Set(p, c, gr.Y)
					gx[2].Set(p, c, gr.Z)
				}
			}
			env.batches[bi] = batchData{
				indices: b.Indices, funcs: b.Funcs, x: x, gx: gx,
				c: linalg.NewMatrix(nloc, n), phi: linalg.NewMatrix(npts, n), dphi: dphi,
			}
		}
	})
	calls := make([]linalg.GemmCall, 0, 4*len(env.batches))
	for bi := range env.batches {
		b := &env.batches[bi]
		env.maxPts = max(env.maxPts, len(b.indices))
		calls = append(calls, linalg.GemmCall{Alpha: 1, A: b.x, B: b.c, C: b.phi})
		for d := range b.gx {
			calls = append(calls, linalg.GemmCall{Alpha: 1, A: b.gx[d], B: b.c, C: b.dphi[d]})
		}
	}
	env.orbPlan = linalg.PlanBatch(calls)
	env.orbGemms, env.orbFLOPs = countCalls(calls)
	env.orbitalsFn, env.densityFn, env.opsFn = env.orbitals, env.densities, env.operands
	return env, nil
}

// countCalls returns the length and FLOP sum of a call list.
func countCalls(calls []linalg.GemmCall) (gemms, flops int64) {
	for i := range calls {
		flops += calls[i].FLOPs()
	}
	return int64(len(calls)), flops
}

// size lays out the pair-space workspaces for np pairs, allocating only when
// the pair count differs from the one they were laid out for.
func (e *gridEnv) size(np int) {
	if e.np == np && e.m != nil {
		return
	}
	npts := e.g.NumPoints()
	e.np = np
	e.v = make([]float64, np*npts)
	e.tbuf, e.vbuf = make([]float64, e.maxPts*np), make([]float64, e.maxPts*np)
	e.m = linalg.NewMatrix(np, np)
	w := e.g.Weight()
	e.contractFLOPs = 0
	for bi := range e.batches {
		b := &e.batches[bi]
		pts := len(b.indices)
		b.t = linalg.NewMatrixFrom(pts, np, e.tbuf[:pts*np])
		b.vb = linalg.NewMatrixFrom(pts, np, e.vbuf[:pts*np])
		b.contract = linalg.BindGemm(true, false, w, b.t, b.vb, 1, e.m)
		e.contractFLOPs += linalg.GemmFLOPs(np, pts, np)
	}
}

// pairDensities is the n⁽¹⁾ phase of solveGrid: the orbitals of c on every
// batch, then ρ_q = φ_l·φ_r for every pair q = (pairL[q], pairR[q]) into row q
// of v. Points no batch owns keep ρ = 0.
func (e *gridEnv) pairDensities(c *linalg.Matrix, pairL, pairR []int) {
	e.size(len(pairL))
	e.c, e.pairL, e.pairR = c, pairL, pairR
	par.ForChunks("grid_orbitals", len(e.batches), 1, e.orbitalsFn)
	e.orbPlan.Run(e.ops)
	clear(e.v)
	par.ForChunks("grid_pair_density", len(e.batches), 1, e.densityFn)
}

// orbitals gathers the rows of C for each batch's functions.
func (e *gridEnv) orbitals(_, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		b := &e.batches[bi]
		for i, fi := range b.funcs {
			copy(b.c.Row(i), e.c.Row(fi))
		}
	}
}

// densities writes the pair densities on the points of batches [lo, hi).
// Batches partition the grid, so the writes of different chunks are disjoint.
func (e *gridEnv) densities(_, lo, hi int) {
	npts := e.g.NumPoints()
	for bi := lo; bi < hi; bi++ {
		b := &e.batches[bi]
		for p, idx := range b.indices {
			phi := b.phi.Row(p)
			for q, l := range e.pairL {
				e.v[q*npts+idx] = phi[l] * phi[e.pairR[q]]
			}
		}
	}
}

// pairPotentials is the v⁽¹⁾ phase: one Poisson solve per pair, v_q = G(ρ_q)
// in place of ρ_q.
func (e *gridEnv) pairPotentials() error {
	npts := e.g.NumPoints()
	for q := 0; q < e.np; q++ {
		row := e.v[q*npts : (q+1)*npts]
		copy(e.rho, row)
		if err := e.solveV1(e.rho, row); err != nil {
			return fmt.Errorf("dfpt: response Poisson solve: %w", err)
		}
	}
	return nil
}

// contract is the H⁽¹⁾ phase for field direction dir: M_d = w·T_dᵀ·V, the
// Coulomb part of Lᵀ·H⁽¹⁾·R on pair q per unit coefficient of pair q′, with
// τ^d_q = ρ_q + ∂_dρ_q — what the phase-4 kernel Xᵀ·V·(X/2 + ∇_dX) +
// transpose projects onto. Batch by batch, in batch order: its operands, then
// its GEMM adds its points' share, so no npts×np array is kept but v. It
// returns M_d, which the next contraction overwrites.
func (e *gridEnv) contract(dir int) *linalg.Matrix {
	e.dir = dir
	e.m.Zero()
	for bi := range e.batches {
		b := &e.batches[bi]
		e.cur = b
		par.ForChunks("grid_pair_operands", len(b.indices), max(1, 2048/e.np), e.opsFn)
		b.contract.Run()
	}
	ops := e.ops
	if ops == nil {
		ops = &linalg.DefaultOps
	}
	ops.GEMMCalls.Add(int64(len(e.batches)))
	ops.FLOPs.Add(e.contractFLOPs)
	return e.m
}

// operands fills rows [lo, hi) of the current batch's τ and v operands.
func (e *gridEnv) operands(_, lo, hi int) {
	b, npts := e.cur, e.g.NumPoints()
	for p := lo; p < hi; p++ {
		phi, dphi := b.phi.Row(p), b.dphi[e.dir].Row(p)
		t, vb := b.t.Row(p), b.vb.Row(p)
		idx := b.indices[p]
		for q, l := range e.pairL {
			r := e.pairR[q]
			pl, pr := phi[l], phi[r]
			t[q] = pl*pr + dphi[l]*pr + pl*dphi[r]
			vb[q] = e.v[q*npts+idx]
		}
	}
}
