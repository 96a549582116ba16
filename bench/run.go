package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/raman"
)

// One run of one workload: what the driver invokes, and what the all-
// workloads mode re-executes in a child process per workload.

const (
	// setupsPerRun set-ups are timed in every untraced run; setup_s is their
	// median, and the last one is the instance the timed window uses.
	setupsPerRun = 3
	// minTimedReps is the floor on timed repetitions whatever -seconds says.
	minTimedReps = 3
)

// metricValue and runResult are the result line the driver reads: exactly
// these keys, printed as the last line of standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what the all-workloads mode records beside the result line
// (printed as a "detail " line just before it).
type runDetail struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Atoms     int       `json:"atoms"`
	Fragments int       `json:"fragments"`
	Reps      int       `json:"reps"`
	Samples   []float64 `json:"spectrum_s_samples"`
	SetupS    []float64 `json:"setup_s_samples"`
	// TailPercentile/TailValue are the highest percentile of the samples
	// with at least ten samples beyond it (0 when there is none).
	TailPercentile  float64  `json:"tail_percentile"`
	TailValue       float64  `json:"tail_value_s"`
	SpectraPerCoreH float64  `json:"spectra_per_core_h"`
	PeakRSSMB       float64  `json:"peak_rss_mb"`
	HeapLiveMB      float64  `json:"heap_live_mb"`
	FailFrac        float64  `json:"fail_frac"`
	RefSHA256       string   `json:"reference_sha256"`
	RefChecked      bool     `json:"reference_checked"`
	Problems        []string `json:"problems,omitempty"`
	Notes           []string `json:"notes,omitempty"`
}

// runOpts are the flags of a single-workload run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	writeRef bool
	benchDir string
	out      io.Writer
}

// scratchRoot returns a private scratch directory under bench/out.
func scratchRoot(benchDir string) (string, error) {
	dir := filepath.Join(benchDir, "out", fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// removeAll is os.RemoveAll for clean-up paths, where a leftover directory
// under the git-ignored bench/out is harmless.
func removeAll(dir string) { _ = os.RemoveAll(dir) }

// systemSize partitions the probe system to report atoms and fragments.
func systemSize(p probeInfo) (atoms, frags int) {
	dec, err := fragment.QFPartitioner{Opt: p.cfg.Fragment}.Partition(p.sys)
	if err != nil {
		return p.sys.NumAtoms(), 0
	}
	return p.sys.NumAtoms(), len(dec.Fragments)
}

// checkReference judges the workload's reference spectrum: invariants, then
// the committed reference of this seed when there is one.
func checkReference(c *checker, o runOpts, ref *raman.Spectrum, d *runDetail) {
	c.delivered("warm-up", ref, nil, nil, 0)
	d.RefSHA256 = spectrumHash(ref)
	path := refPath(o.benchDir, o.workload, o.seed)
	committed, err := readRef(path)
	switch {
	case err != nil:
		c.invariant(false, "reference: %v", err)
	case committed == nil:
		fmt.Fprintf(o.out, "ref: none for seed %d (invariants only)\n", o.seed)
	default:
		d.RefChecked = true
		err := checkAgainstRef(ref, committed, c.opt.FreqStep)
		c.invariant(err == nil, "reference: %v", err)
		fmt.Fprintf(o.out, "ref: cosine %.8f vs %s\n", cosine(ref, committed), filepath.Base(path))
	}
	fmt.Fprintf(o.out, "reference sha256: %s\n", d.RefSHA256)
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w *workloadDef, o runOpts) (runResult, runDetail, error) {
	detail := runDetail{Workload: w.Name, Seed: o.seed}
	root, err := scratchRoot(o.benchDir)
	if err != nil {
		return runResult{}, detail, err
	}
	defer removeAll(root)

	var inst instance
	for i := 0; i < setupsPerRun; i++ {
		e := &env{seed: o.seed, dir: filepath.Join(root, fmt.Sprintf("setup%d", i))}
		t0 := time.Now()
		in, err := w.Setup(e)
		if err != nil {
			return runResult{}, detail, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		detail.SetupS = append(detail.SetupS, time.Since(t0).Seconds())
		if i < setupsPerRun-1 {
			in.close()
			removeAll(e.dir)
		} else {
			inst = in
		}
	}
	defer inst.close()
	detail.Atoms, detail.Fragments = systemSize(inst.probe())

	ref := inst.reference()
	if o.writeRef {
		path := refPath(o.benchDir, w.Name, o.seed)
		if err := writeRef(path, ref); err != nil {
			return runResult{}, detail, err
		}
		fmt.Fprintf(o.out, "ref: wrote %s\n", path)
	}
	c := &checker{opt: inst.probe().cfg.Raman}
	checkReference(c, o, ref, &detail)

	ru0 := readRusage()
	t0 := time.Now()
	for detail.Reps < minTimedReps || time.Since(t0).Seconds() < o.seconds {
		for _, d := range inst.rep(nil) {
			c.delivered(d.label, d.spec, d.err, ref, inst.nearFloor())
			if d.err == nil {
				detail.Samples = append(detail.Samples, d.seconds)
			}
		}
		detail.Reps++
	}
	ru1 := readRusage()
	heap := liveHeapMB()
	inst.verify(c)
	if len(detail.Samples) == 0 {
		return runResult{}, detail, fmt.Errorf("%s: no spectrum delivered: %v", w.Name, c.problems)
	}

	cpu := (ru1.cpuS - ru0.cpuS) / float64(len(detail.Samples))
	values := map[string]float64{
		"spectrum_s": median(detail.Samples),
		"cpu_s":      cpu,
		"setup_s":    median(detail.SetupS),
	}
	detail.PeakRSSMB, detail.HeapLiveMB = ru1.peakRSSMB, heap
	detail.TailPercentile, detail.TailValue, _ = tailPercentile(detail.Samples)
	detail.SpectraPerCoreH = 3600 / cpu
	return finish(c, endToEnd, values, &detail), detail, nil
}

// liveHeapMB is the heap still reachable after the timed window, with the
// instance (engine, daemon, stores' indexes, anything the program cached)
// still alive: two collections, so sync.Pool contents are gone too.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// finish turns the measured values and the checker's verdict into the
// result line.
func finish(c *checker, defs []metricDef, values map[string]float64, d *runDetail) runResult {
	res := runResult{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metricValue{}}
	for _, def := range defs {
		res.Metrics[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit}
	}
	d.FailFrac = float64(c.failed) / float64(c.attempted)
	d.Problems = c.problems
	d.Notes = c.notes
	return res
}

// traceFile is what a traced pass writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Host       hostInfo           `json:"host"`
	Spectra    int                `json:"traced_spectra"`
	TotalS     map[string]float64 `json:"span_total_s"`
	SelfS      map[string]float64 `json:"span_self_s"`
	KernelS    map[string]float64 `json:"par_kernel_s_computed_serial"`
	KernelN    map[string]int     `json:"par_kernel_chunks"`
	Microscope []microRow         `json:"microscope"`
	Metrics    map[string]float64 `json:"metrics"`
	Spans      []span             `json:"spans"`
}

// sameSpectrum is the traced-vs-untraced comparison: the two instances are
// fed identical inputs, so the spectra must carry identical bits.
func sameSpectrum(a, b delivery) error {
	switch {
	case a.err != nil:
		return a.err
	case b.err != nil:
		return b.err
	case !bitEqual(a.spec, b.spec):
		return fmt.Errorf("traced spectrum %s differs from untraced %s (cosine %.12f)",
			spectrumHash(b.spec)[:12], spectrumHash(a.spec)[:12], cosine(a.spec, b.spec))
	}
	return nil
}

// runTraced produces the per-layer metrics of one workload. Two instances
// are set up from the same seed — one untraced, one traced — and repeat in
// turn, so the traced spectra are checked against untraced ones and the
// difference of their walls is the tracing overhead. A third, profiled
// repetition (par.StartProfile serialises kernels) gives the kernel shares,
// and the microscope calls the compute layers directly.
func runTraced(w *workloadDef, o runOpts) (runResult, runDetail, error) {
	detail := runDetail{Workload: w.Name, Seed: o.seed, Traced: true}
	root, err := scratchRoot(o.benchDir)
	if err != nil {
		return runResult{}, detail, err
	}
	defer removeAll(root)

	tr := newTracer(w.Name)
	plain, err := w.Setup(&env{seed: o.seed, dir: filepath.Join(root, "untraced")})
	if err != nil {
		return runResult{}, detail, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer plain.close()
	traced, err := w.Setup(&env{seed: o.seed, dir: filepath.Join(root, "traced"), tr: tr})
	if err != nil {
		return runResult{}, detail, fmt.Errorf("%s: traced set-up: %w", w.Name, err)
	}
	defer traced.close()
	probe := traced.probe()
	detail.Atoms, detail.Fragments = systemSize(probe)

	c := &checker{opt: probe.cfg.Raman}
	ref := traced.reference()
	checkReference(c, o, ref, &detail)
	c.invariant(bitEqual(ref, plain.reference()), "traced warm-up spectrum differs from the untraced one")

	acc := &layerAcc{sum: map[string]float64{}}
	var wallPlain, wallTraced []float64
	var batch par.ElasticStats
	// The pairs get half the window; the profiled repetition and the
	// microscope use the rest.
	t0 := time.Now()
	for detail.Reps < 1 || time.Since(t0).Seconds() < o.seconds/2 {
		detail.Reps++
		tr.setRep(detail.Reps)
		da := plain.rep(nil)
		b0 := linalg.GemmBatchStats()
		db := traced.rep(acc)
		b1 := linalg.GemmBatchStats()
		batch.Submits += b1.Submits - b0.Submits
		batch.Flushes += b1.Flushes - b0.Flushes
		batch.Merged += b1.Merged - b0.Merged
		for i := range db {
			c.delivered(db[i].label, db[i].spec, db[i].err, ref, traced.nearFloor())
			if i < len(da) {
				if err := sameSpectrum(da[i], db[i]); err != nil {
					c.invariant(false, "%s rep %d: %v", db[i].label, detail.Reps, err)
				} else {
					wallPlain = append(wallPlain, da[i].seconds)
					wallTraced = append(wallTraced, db[i].seconds)
				}
			}
		}
	}
	tr.setRep(0)
	traced.verify(c)
	n := float64(len(wallTraced))
	if n == 0 {
		return runResult{}, detail, fmt.Errorf("%s: no traced spectrum delivered: %v", w.Name, c.problems)
	}
	detail.Samples = wallTraced

	m := map[string]float64{}
	for k, v := range acc.sum {
		m[k] = v / n
	}
	if run := m["sched.run_s"] * float64(traced.slots()); run > 0 {
		m["sched.idle_frac"] = 100 * (1 - m["sched.busy_s"]/run)
	}
	if lookups := m["cache.hits"] + m["cache.misses"]; lookups > 0 {
		m["store.hit_ratio"] = 100 * m["cache.hits"] / lookups
	}
	m["lanczos.k"] = float64(c.opt.LanczosK)
	m["linalg.batch_submits"] = float64(batch.Submits) / n
	m["linalg.batch_flushes"] = float64(batch.Flushes) / n
	m["linalg.batch_merged"] = float64(batch.Merged) / n
	m["trace.overhead_s"] = median(wallTraced) - median(wallPlain)
	m["proc.peak_rss_mb"] = readRusage().peakRSSMB
	m["proc.heap_live_mb"] = liveHeapMB()

	// Span-derived numbers use the timed repetitions only (Rep ≥ 1; the
	// warm-up's spans carry Rep 0).
	var timed []span
	for _, s := range tr.snapshot() {
		if s.Rep >= 1 {
			timed = append(timed, s)
		}
	}
	total, self := spanTotals(timed)
	m["trace.spans"] = float64(len(timed)) / n
	for metric, name := range map[string]string{
		"hessian.assemble_s": "hessian.assemble",
		"raman.solve_s":      "raman.solve",
	} {
		if k := countSpans(timed, name); k > 0 {
			m[metric] = total[name] / float64(k)
		}
	}

	// Profiled repetition on the untraced instance: every par region runs
	// serially with per-chunk timing, so these are computed-serial kernel
	// seconds, never mixed into any wall-clock number above.
	prof := par.StartProfile()
	pd := plain.rep(nil)
	par.StopProfile()
	kernelS, kernelN := prof.ByKernel(), prof.ChunksByKernel()
	for _, d := range pd {
		c.delivered("profiled "+d.label, d.spec, d.err, ref, plain.nearFloor())
	}
	per := float64(len(pd))
	for name, s := range kernelS {
		m["par.kernel_s."+kernelGroup(name)] += s / per
		m["par.kernel_s.total"] += s / per
		m["par.chunks"] += float64(kernelN[name]) / per
	}
	if t := m["par.kernel_s.total"]; t > 0 {
		m["par.poisson_share"] = 100 * m["par.kernel_s.poisson"] / t
	}

	rows, err := microscope(probe, o.seed, filepath.Join(root, "scratch-store"), tr, m)
	c.invariant(err == nil, "%v", err)

	res := finish(c, perLayer, m, &detail)
	tf := traceFile{Workload: w.Name, Seed: o.seed, Host: readHost(), Spectra: len(wallTraced),
		TotalS: total, SelfS: self, KernelS: kernelS, KernelN: kernelN, Microscope: rows,
		Metrics: map[string]float64{}, Spans: tr.snapshot()}
	for _, def := range perLayer {
		tf.Metrics[def.Name] = m[def.Name]
	}
	path := filepath.Join(o.benchDir, "out", "trace-"+w.Name+".json")
	if err := writeJSON(path, tf); err != nil {
		return res, detail, err
	}
	printTraceSummary(o.out, tf, path)
	return res, detail, nil
}

// printTraceSummary prints the self-time table, the kernel table and the
// microscope rows of a traced pass.
func printTraceSummary(out io.Writer, tf traceFile, path string) {
	names := make([]string, 0, len(tf.SelfS))
	for k := range tf.SelfS {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return tf.SelfS[names[i]] > tf.SelfS[names[j]] })
	fmt.Fprintf(out, "span self time over %d traced spectra (self = span − the part its children cover):\n", tf.Spectra)
	for _, k := range names {
		fmt.Fprintf(out, "  %-24s self %10.4f s   total %10.4f s\n", k, tf.SelfS[k], tf.TotalS[k])
	}
	knames := make([]string, 0, len(tf.KernelS))
	for k := range tf.KernelS {
		knames = append(knames, k)
	}
	sort.Slice(knames, func(i, j int) bool { return tf.KernelS[knames[i]] > tf.KernelS[knames[j]] })
	fmt.Fprintln(out, "par kernels of the profiled repetition (computed-serial seconds; measured, not modeled):")
	for _, k := range knames {
		fmt.Fprintf(out, "  %-18s %10.4f s  %9d chunks  [%s]\n", k, tf.KernelS[k], tf.KernelN[k], kernelGroup(k))
	}
	fmt.Fprintln(out, "fragment microscope (direct calls):")
	for _, r := range tf.Microscope {
		fmt.Fprintf(out, "  fragment %d, %d atoms: scf %.4f s/%d it, displacement %.4f s, dfpt p1/n1/v1/h1 %.4f/%.4f/%.4f/%.4f s over %d cycles, poisson %.4f s/%d it/%d pts\n",
			r.Fragment, r.Atoms, r.SCFSolveS, r.SCFIters, r.DisplacementS, r.P1S, r.N1S, r.V1S, r.H1S, r.Cycles, r.PoissonS, r.PoissonIters, r.PoissonPoints)
	}
	fmt.Fprintf(out, "trace: %s (%d spans)\n", path, len(tf.Spans))
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printMetrics prints every metric of a result by name with its unit.
func printMetrics(out io.Writer, workload string, defs []metricDef, res runResult, d runDetail) {
	for _, def := range defs {
		fmt.Fprintf(out, "%-12s %-28s %16.6g %s\n", workload, def.Name, res.Metrics[def.Name].Value, def.Unit)
	}
	if !d.Traced {
		fmt.Fprintf(out, "%-12s %-28s %16.6g %s  (n=%d spectra in %d reps", workload, "spectrum_s.n", float64(len(d.Samples)), "count", len(d.Samples), d.Reps)
		if d.TailPercentile > 0 {
			fmt.Fprintf(out, "; p%g = %.6g s", d.TailPercentile, d.TailValue)
		} else {
			fmt.Fprint(out, "; too few samples for a tail percentile")
		}
		fmt.Fprintln(out, ")")
		fmt.Fprintf(out, "%-12s %-28s %16.6g %s  (3600 / cpu_s, un-gated)\n", workload, "spectra_per_core_h", d.SpectraPerCoreH, "1/h")
		fmt.Fprintf(out, "%-12s %-28s %16.6g %s  (VmHWM of this process, un-gated)\n", workload, "peak_rss_mb", d.PeakRSSMB, "MB")
		fmt.Fprintf(out, "%-12s %-28s %16.6g %s  (heap reachable after the window, un-gated)\n", workload, "heap_live_mb", d.HeapLiveMB, "MB")
	}
	fmt.Fprintf(out, "%-12s %-28s %16.6g %s  (%d failed of %d attempted)\n", workload, "fail_frac", d.FailFrac, "ratio", res.Failed, res.Attempted)
	for _, p := range d.Problems {
		fmt.Fprintf(out, "%-12s FAILED CHECK: %s\n", workload, p)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(out, "%-12s note: %s\n", workload, n)
	}
}
