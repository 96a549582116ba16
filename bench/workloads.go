package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qframan/internal/core"
	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// workloadDef is one row of the workload table. Why is the one-line reason
// BENCHMARK.json repeats; Setup builds one ready instance: inputs generated
// from the seed, services started, stores populated, and one untimed
// warm-up repetition delivered (its spectrum is the workload's reference).
type workloadDef struct {
	Name  string
	Why   string
	Setup func(e *env) (instance, error)
}

// env is what a set-up may depend on: the seed, a private scratch directory
// under bench/out, and the tracer of a traced instance (nil for an untraced
// one), which the instance keeps and hands to the engines it starts.
type env struct {
	seed int64
	dir  string
	tr   *tracer
	n    int
}

// tempDir returns a fresh empty directory under the run's scratch space.
func (e *env) tempDir(name string) (string, error) {
	e.n++
	d := fmt.Sprintf("%s/%s-%d", e.dir, name, e.n)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, nil
}

// delivery is one spectrum handed back to the caller of the system, with
// the wall seconds from structure in hand to spectrum returned.
type delivery struct {
	label   string
	seconds float64
	spec    *raman.Spectrum
	err     error
}

// layerAcc sums the per-layer numbers that reports and status replies
// carry; spans carry the rest. A nil accumulator (untraced run) drops them.
// serve-wave's clients add concurrently.
type layerAcc struct {
	mu  sync.Mutex
	sum map[string]float64
}

func (a *layerAcc) add(name string, v float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sum[name] += v
	a.mu.Unlock()
}

// instance is one set-up workload.
type instance interface {
	// rep performs one repetition and returns what it delivered.
	rep(acc *layerAcc) []delivery
	// reference is the spectrum the warm-up repetition delivered.
	reference() *raman.Spectrum
	// nearFloor is the cosine floor of timed deliveries against the
	// reference: refMinCosine when every repetition repeats the reference
	// geometry, walkMinCosine for random-walk workloads.
	nearFloor() float64
	// verify records the workload invariants that span repetitions.
	verify(c *checker)
	// probe describes the reference system for the fragment microscope.
	probe() probeInfo
	// slots is the number of fragments the workload can process at once
	// (the denominator of sched.idle_frac).
	slots() int
	close()
}

// probeInfo is what the microscope needs to call the compute layers
// directly: the reference system, the pipeline configuration (its Raman
// options are the axis every delivery is sampled on), and the workload's
// store (nil for store-less workloads).
type probeInfo struct {
	sys   *structure.System
	cfg   core.Config
	store *store.Store
}

// baseConfig is the production pipeline configuration every workload
// starts from: sched.DefaultOptions (2 leaders × 2 workers), γ-mode DFPT,
// Lanczos/GAGQ with K = 120 on a 50–4000 cm⁻¹ axis at 5 cm⁻¹ and the
// paper's solvated smearing σ = 20 cm⁻¹.
func baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 50, 4000, 5
	cfg.Raman.Sigma = 20
	cfg.Raman.LanczosK = 120
	return cfg
}

// Workload sizes. Every size is fixed here and never derived from the seed.
const (
	wbNX, wbNY, wbNZ       = 3, 2, 2 // wb-gamma, cluster-loop: 12 waters, 36 atoms
	resumeN                = 3       // wb-resume, traj-warm: 3×3×3 box, 81 atoms
	gridSpacing            = 0.8     // grid-2w real-space grid, bohr
	gridMargin             = 4.0
	trajFramesPerCycle     = 9 // warm frames per traj-warm repetition
	trajMovedPerFrame      = 1 // molecules re-jittered per warm frame
	serveBoxN              = 2 // serve-wave: 2×2×2 box per job
	serveMovedPerJob       = 4 // half of the box's 8 molecules move per job
	serveClients           = 2 // closed-loop clients
	serveJobsPerClientWave = 4 // one repetition = 8 jobs
	serveWarmupPerClient   = 2 // 4 untimed warm-up jobs
)

var workloads = []workloadDef{
	{"wb-gamma", "pure-water box, gamma-mode DFPT, no store: many ms-scale fragments, so sched dispatch, scf and small GEMMs do the work", setupWBGamma},
	{"grid-2w", "two isolated waters on the real-space grid path: Poisson CG, batched GEMMs and grid kernels dominate; sched and store idle", setupGrid2W},
	{"pep-solv", "solvated capped residue, no store: one large fragment beside 3- and 6-atom water terms, so packing and the tail matter", setupPepSolv},
	{"wb-resume", "water box resumed from a populated store: zero recompute, so partition, fingerprint, store reads, assembly and Lanczos are the latency", setupWBResume},
	{"traj-warm", "perturbed water-box trajectory through traj.Engine: store reads with a few writes, warm-start SCF, incremental assembly", setupTrajWarm},
	{"serve-wave", "real HTTP daemon, shared store, 3 tenants, 2 closed-loop clients submitting overlapping text jobs: queue, admission, cross-job dedup", setupServeWave},
	{"cluster-loop", "the wb-gamma system through a loopback coordinator and 2 workers with cold stores: isolates RPC, lease and cache-tier overhead", setupClusterLoop},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// timedProcess wraps the built-in fragment engine with a span and a busy
// clock, delegating to sched.DefaultProcess — the only way to see per-
// fragment time without adding anything inside the program. parent yields
// the span the fragment spans hang under.
func timedProcess(tr *tracer, parent func() int, busy *atomic.Int64) sched.ProcessFunc {
	return func(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
		id := tr.begin(parent(), "sched.process")
		t0 := time.Now()
		fd, err := sched.DefaultProcess(f, opt)
		busy.Add(int64(time.Since(t0)))
		tr.end(id)
		return fd, err
	}
}

// computeRaman is the one-shot pipeline. Untraced it is core.ComputeRaman,
// the program's own entry point. Traced it re-executes that function's body
// — Partition → sched.Run → AssembleDegraded → LanczosSpectrum — with a
// span around each public call and the Process wrapper installed.
func computeRaman(sys *structure.System, cfg core.Config, tr *tracer, parent int, acc *layerAcc) (*core.Result, error) {
	if tr == nil {
		return core.ComputeRaman(sys, cfg)
	}
	root := tr.begin(parent, "spectrum")
	defer tr.end(root)

	part := cfg.Partitioner
	if part == nil {
		part = fragment.QFPartitioner{Opt: cfg.Fragment}
	}
	id := tr.begin(root, "fragment.partition")
	dec, err := part.Partition(sys)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("decompose: %w", err)
	}

	run := tr.begin(root, "sched.run")
	var busy atomic.Int64
	if cfg.Sched.Backend == nil {
		cfg.Sched.Process = timedProcess(tr, func() int { return run }, &busy)
	}
	t0 := time.Now()
	datas, report, err := sched.Run(dec, cfg.Sched)
	acc.add("sched.run_s", time.Since(t0).Seconds())
	tr.end(run)
	if err != nil {
		return nil, fmt.Errorf("fragment jobs: %w", err)
	}
	acc.add("sched.busy_s", time.Duration(busy.Load()).Seconds())
	acc.add("fragment.count", float64(len(dec.Fragments)))
	acc.add("sched.tasks", float64(report.NumTasks))
	acc.add("sched.retries", float64(report.Retries))
	acc.add("sched.deduped", float64(report.Deduped))
	acc.add("cache.hits", float64(report.CacheHits))
	acc.add("cache.misses", float64(report.CacheMisses))

	id = tr.begin(root, "hessian.assemble")
	g, err := hessian.AssembleDegraded(dec, sys.Masses(), datas, true, report.Failed)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	id = tr.begin(root, "raman.solve")
	spec, err := raman.LanczosSpectrum(g, cfg.Raman)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("spectrum: %w", err)
	}
	return &core.Result{Spectrum: spec, Decomposition: dec, Global: g, SchedReport: report}, nil
}

// direct is a workload whose repetition is one in-process pipeline call on
// a fixed system: wb-gamma, grid-2w, pep-solv and wb-resume.
type direct struct {
	tr    *tracer
	sys   *structure.System
	cfg   core.Config
	store *store.Store // nil for the store-less workloads
	ref   *raman.Spectrum
	// resumed is set by wb-resume: every repetition must be served entirely
	// from records a previous store session wrote.
	resumed bool
}

func (d *direct) rep(acc *layerAcc) []delivery {
	t0 := time.Now()
	res, err := computeRaman(d.sys, d.cfg, d.tr, 0, acc)
	out := delivery{label: "rep", seconds: time.Since(t0).Seconds(), err: err}
	if err == nil {
		out.spec = res.Spectrum
		rep := res.SchedReport
		switch {
		case rep.Degraded:
			out.err = fmt.Errorf("degraded run: fragments %v failed", rep.Failed)
		case d.resumed && (rep.CacheMisses != 0 || rep.Resumed != len(res.Decomposition.Fragments)):
			out.err = fmt.Errorf("resume recomputed %d fragments (resumed %d of %d)",
				rep.CacheMisses, rep.Resumed, len(res.Decomposition.Fragments))
		}
	}
	return []delivery{out}
}

func (d *direct) reference() *raman.Spectrum { return d.ref }
func (d *direct) nearFloor() float64         { return refMinCosine }
func (d *direct) verify(*checker)            {}
func (d *direct) slots() int                 { return d.cfg.Sched.NumLeaders }
func (d *direct) probe() probeInfo {
	return probeInfo{sys: d.sys, cfg: d.cfg, store: d.store}
}
func (d *direct) close() {
	if d.store != nil {
		d.store.Close()
	}
}

// warmUp delivers the untimed warm-up repetition and keeps its spectrum as
// the workload's reference.
func (d *direct) warmUp() error {
	out := d.rep(nil)[0]
	if out.err != nil {
		return fmt.Errorf("warm-up: %w", out.err)
	}
	d.ref = out.spec
	return nil
}

func setupWBGamma(e *env) (instance, error) {
	sys, err := genWaterBox(wbNX, wbNY, wbNZ, e.seed)
	if err != nil {
		return nil, err
	}
	d := &direct{tr: e.tr, sys: sys, cfg: baseConfig()}
	return d, d.warmUp()
}

func setupGrid2W(e *env) (instance, error) {
	sys, err := genTwoWaters(e.seed)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig()
	cfg.Sched.Job.DFPT.Coulomb = dfpt.GridCoulomb
	cfg.Sched.Job.DFPT.GridSpacing = gridSpacing
	cfg.Sched.Job.DFPT.GridMargin = gridMargin
	d := &direct{tr: e.tr, sys: sys, cfg: cfg}
	return d, d.warmUp()
}

func setupPepSolv(e *env) (instance, error) {
	sys, err := genSolvatedPeptide(e.seed)
	if err != nil {
		return nil, err
	}
	d := &direct{tr: e.tr, sys: sys, cfg: baseConfig()}
	return d, d.warmUp()
}

// setupWBResume populates a store with one cold checkpointing run (the
// write path, which is why this workload's setup_s is the cold-store
// number), closes it, and reopens it so every record is a prior-session
// record — what -resume serves.
func setupWBResume(e *env) (instance, error) {
	sys, err := genWaterBox(resumeN, resumeN, resumeN, e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("resume-store")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig()
	cfg.Sched.Cache = sched.CacheOptions{Store: st}
	_, err = core.ComputeRaman(sys, cfg)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("populate store: %w", err)
	}
	st, err = store.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg.Sched.Cache = sched.CacheOptions{Store: st, Resume: true}
	d := &direct{tr: e.tr, sys: sys, cfg: cfg, store: st, resumed: true}
	if err := d.warmUp(); err != nil {
		st.Close()
		return nil, err
	}
	return d, nil
}
