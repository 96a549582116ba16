package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/grid"
	"qframan/internal/hessian"
	"qframan/internal/poisson"
	"qframan/internal/raman"
	"qframan/internal/scf"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// The fragment microscope calls the compute layers directly — the same
// public functions the displacement loop calls — on the smallest, median
// and largest distinct fragment of a workload's reference system, and on
// its store. Every per-layer metric it fills is a sum over those (up to
// three) fragments; the per-fragment rows are in the trace file.

// microRow is the microscope's record of one fragment.
type microRow struct {
	Fragment      int     `json:"fragment"`
	Atoms         int     `json:"atoms"`
	SCFSolveS     float64 `json:"scf_solve_s"`
	SCFIters      int     `json:"scf_iters"`
	DisplacementS float64 `json:"hessian_displacement_s"`
	P1S           float64 `json:"dfpt_p1_s"`
	N1S           float64 `json:"dfpt_n1_s"`
	V1S           float64 `json:"dfpt_v1_s"`
	H1S           float64 `json:"dfpt_h1_s"`
	Cycles        int     `json:"dfpt_cycles"`
	GEMMs         int64   `json:"dfpt_gemms"`
	FLOPs         int64   `json:"dfpt_flops"`
	PoissonS      float64 `json:"poisson_solve_s"`
	PoissonIters  int     `json:"poisson_iters"`
	PoissonPoints int     `json:"poisson_points"`
}

// pickFragments returns the indices of the smallest, median and largest
// fragment among one representative per content key (ties by index, so the
// choice is deterministic).
func pickFragments(dec *fragment.Decomposition, job hessian.JobOptions) []int {
	seen := map[store.Key]bool{}
	var distinct []int
	for i := range dec.Fragments {
		k, _ := store.Fingerprint(&dec.Fragments[i], job)
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, i)
		}
	}
	sort.SliceStable(distinct, func(a, b int) bool {
		return dec.Fragments[distinct[a]].NumAtoms() < dec.Fragments[distinct[b]].NumAtoms()
	})
	var picks []int
	for _, pos := range []int{0, len(distinct) / 2, len(distinct) - 1} {
		if len(picks) == 0 || picks[len(picks)-1] != distinct[pos] {
			picks = append(picks, distinct[pos])
		}
	}
	return picks
}

// responseDensity is a stand-in for n⁽¹⁾ on the fragment's grid: one unit
// Gaussian per atom weighted by its converged charge excess, so the total is
// near zero and the far field is dipolar, like a response density.
func responseDensity(g *grid.Grid, m *scf.Model, dq []float64) []float64 {
	const width = 1.0 // bohr
	rho := make([]float64, g.NumPoints())
	norm := math.Pow(2*math.Pi*width*width, -1.5)
	for i := range rho {
		p := g.Point(i)
		var v float64
		for a, r := range m.Pos {
			d := p.Sub(r)
			v += dq[a] * math.Exp(-(d.X*d.X+d.Y*d.Y+d.Z*d.Z)/(2*width*width))
		}
		rho[i] = norm * v
	}
	return rho
}

// inspectFragment runs the compute layers on one fragment.
func inspectFragment(f *fragment.Fragment, job hessian.JobOptions, tr *tracer, parent int) (microRow, error) {
	row := microRow{Fragment: f.ID, Atoms: f.NumAtoms()}
	m, err := hessian.ModelForFragment(f)
	if err != nil {
		return row, err
	}

	id := tr.begin(parent, "scf.solve")
	t0 := time.Now()
	ref, err := m.SolveSCFRobust(job.SCF)
	row.SCFSolveS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return row, fmt.Errorf("scf: %w", err)
	}
	row.SCFIters = ref.Iterations

	id = tr.begin(parent, "dfpt.polarizability")
	resp, err := dfpt.Polarizability(m, ref, job.DFPT)
	tr.end(id)
	if err != nil {
		return row, fmt.Errorf("dfpt: %w", err)
	}
	pm := resp.Metrics
	row.P1S, row.N1S, row.V1S, row.H1S = pm.TimeP1.Seconds(), pm.TimeN1.Seconds(), pm.TimeV1.Seconds(), pm.TimeH1.Seconds()
	row.Cycles, row.GEMMs, row.FLOPs = resp.Cycles, pm.GEMMsN1+pm.GEMMsH1, pm.FLOPsN1+pm.FLOPsH1

	// One displaced worker job, warm-started exactly as the displacement
	// loop starts it (hessian.SolveReference's hand-over).
	warm := job
	warm.SCF.InitDeltaQ = ref.DeltaQ
	warm.DFPT.InitP1 = resp.P1
	warm.DFPT.Mixing = resp.MixingUsed
	id = tr.begin(parent, "hessian.displacement")
	t0 = time.Now()
	_, err = hessian.RunDisplacement(m, 0, 0, +1, warm)
	row.DisplacementS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return row, fmt.Errorf("displacement: %w", err)
	}

	if job.DFPT.Coulomb == dfpt.GridCoulomb {
		g := grid.Cover(m.Pos, job.DFPT.GridMargin, job.DFPT.GridSpacing)
		rho := responseDensity(g, m, ref.DeltaQ)
		id = tr.begin(parent, "poisson.solve")
		t0 = time.Now()
		// The tolerance phase 3 of the grid DFPT cycle solves to.
		_, iters, err := poisson.Solve(g, rho, poisson.Options{Tol: 1e-7, MaxIter: 20000})
		row.PoissonS = time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return row, fmt.Errorf("poisson: %w", err)
		}
		row.PoissonIters, row.PoissonPoints = iters, g.NumPoints()
	}
	return row, nil
}

// inspectStore times the store's three operations from outside, on the
// reference decomposition: fingerprint every fragment, Get every fragment
// (each includes the back-rotation into the fragment's frame), and Put one
// record per distinct key into a scratch store.
func inspectStore(dec *fragment.Decomposition, job hessian.JobOptions, st *store.Store, scratchDir string, tr *tracer, parent int, m map[string]float64) ([]*hessian.FragmentData, error) {
	nf := len(dec.Fragments)
	keys := make([]store.Key, nf)
	frames := make([]store.Frame, nf)
	id := tr.begin(parent, "store.fingerprint")
	t0 := time.Now()
	for i := range dec.Fragments {
		keys[i], frames[i] = store.Fingerprint(&dec.Fragments[i], job)
	}
	m["store.fingerprint_s"] = time.Since(t0).Seconds()
	tr.end(id)

	datas := make([]*hessian.FragmentData, nf)
	id = tr.begin(parent, "store.get")
	t0 = time.Now()
	for i := range dec.Fragments {
		fd, _, err := st.Get(keys[i], frames[i])
		if err != nil {
			return nil, fmt.Errorf("store get: %w", err)
		}
		datas[i] = fd
	}
	m["store.get_s"] = time.Since(t0).Seconds()
	tr.end(id)

	scratch, err := store.Open(scratchDir)
	if err != nil {
		return nil, err
	}
	defer scratch.Close()
	put := map[store.Key]bool{}
	id = tr.begin(parent, "store.put")
	t0 = time.Now()
	for i, fd := range datas {
		if fd == nil || put[keys[i]] {
			continue
		}
		put[keys[i]] = true
		if _, err := scratch.Put(keys[i], frames[i], fd); err != nil {
			return nil, fmt.Errorf("store put: %w", err)
		}
	}
	m["store.put_s"] = time.Since(t0).Seconds()
	tr.end(id)
	m["store.bytes"] = float64(st.Stats().Bytes)
	return datas, nil
}

// inspectSolve times assembly and the spectral solve directly, for the
// workloads whose pipeline runs inside an engine the harness cannot put
// spans into (traj-warm, serve-wave); it needs every fragment's data, which
// those workloads' stores hold.
func inspectSolve(p probeInfo, dec *fragment.Decomposition, datas []*hessian.FragmentData, tr *tracer, parent int, m map[string]float64) error {
	for _, fd := range datas {
		if fd == nil {
			return nil // the store does not hold the whole reference system
		}
	}
	id := tr.begin(parent, "hessian.assemble")
	t0 := time.Now()
	g, err := hessian.AssembleDegraded(dec, p.sys.Masses(), datas, true, nil)
	m["hessian.assemble_s"] = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	id = tr.begin(parent, "raman.solve")
	t0 = time.Now()
	_, err = raman.LanczosSpectrum(g, p.cfg.Raman)
	m["raman.solve_s"] = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("spectrum: %w", err)
	}
	return nil
}

// graphPartitionSeconds times the graph partitioner alone on a 2-chain ×
// 4-monomer PEG melt — the one layer no QF workload reaches.
func graphPartitionSeconds(seed int64, tr *tracer, parent int) (float64, error) {
	sys := structure.BuildPolymerMelt(2, 4, seed)
	id := tr.begin(parent, "fragment.graph_partition")
	t0 := time.Now()
	_, err := fragment.GraphPartitioner{Opt: fragment.DefaultGraphOptions()}.Partition(sys)
	s := time.Since(t0).Seconds()
	tr.end(id)
	return s, err
}

// microscope fills the per-layer metrics that come from direct calls.
func microscope(p probeInfo, seed int64, scratchDir string, tr *tracer, m map[string]float64) ([]microRow, error) {
	root := tr.begin(0, "microscope")
	defer tr.end(root)
	job := p.cfg.Sched.Job
	id := tr.begin(root, "fragment.partition")
	t0 := time.Now()
	dec, err := fragment.QFPartitioner{Opt: p.cfg.Fragment}.Partition(p.sys)
	m["fragment.partition_s"] = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var rows []microRow
	for _, fi := range pickFragments(dec, job) {
		row, err := inspectFragment(&dec.Fragments[fi], job, tr, root)
		if err != nil {
			return rows, fmt.Errorf("microscope: fragment %d: %w", fi, err)
		}
		rows = append(rows, row)
		m["scf.solve_s"] += row.SCFSolveS
		m["scf.iters"] += float64(row.SCFIters)
		m["hessian.displacement_s"] += row.DisplacementS
		m["dfpt.p1_s"] += row.P1S
		m["dfpt.n1_s"] += row.N1S
		m["dfpt.v1_s"] += row.V1S
		m["dfpt.h1_s"] += row.H1S
		m["dfpt.cycles"] += float64(row.Cycles)
		m["dfpt.gemms"] += float64(row.GEMMs)
		m["dfpt.flops"] += float64(row.FLOPs)
		m["poisson.solve_s"] += row.PoissonS
		m["poisson.iters"] += float64(row.PoissonIters)
		m["poisson.points"] += float64(row.PoissonPoints)
	}
	if p.store != nil {
		datas, err := inspectStore(dec, job, p.store, scratchDir, tr, root, m)
		if err != nil {
			return rows, err
		}
		if _, spanned := m["raman.solve_s"]; !spanned {
			if err := inspectSolve(p, dec, datas, tr, root, m); err != nil {
				return rows, err
			}
		}
	}
	m["fragment.graph_partition_s"], err = graphPartitionSeconds(seed, tr, root)
	return rows, err
}

// kernelGroup maps a par kernel name to the layer it is reported under, by
// name prefix, so a kernel a later change adds still lands in its layer.
func kernelGroup(name string) string {
	switch {
	case strings.HasPrefix(name, "gemm"), strings.HasPrefix(name, "gemv"), name == "dot":
		return "linalg"
	case strings.HasPrefix(name, "poisson"):
		return "poisson"
	case strings.HasPrefix(name, "grid"):
		return "grid"
	case strings.HasPrefix(name, "lanczos"), name == "spmv":
		return "lanczos"
	}
	return "other"
}
