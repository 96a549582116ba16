// Command qframan runs the full QF-RAMAN pipeline: quantum fragmentation,
// the parallel per-fragment DFT+DFPT engine, Eq. 1 assembly, and the
// Lanczos+GAGQ Raman-spectrum solver (exact where that costs less, and
// always with -k at least 3N).
//
// Examples:
//
//	qframan -seq GAVKAG -o spectrum.tsv
//	qframan -in solvated.txt -sigma 20 -fmin 200 -fmax 4000
//	qframan -water 4 -k 576
//	qframan -in top.txt -traj traj.xyz -traj-out frames -cache-dir cache
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"qframan/internal/cluster"
	"qframan/internal/core"
	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "qframan:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	in, seq                string
	fold, dimers, waterBox int
	solvate                bool

	partitioner       string
	fragSize, fragMax int

	fmin, fmax, fstep, sigma float64
	k                        int
	irOut                    string
	leaders, kernelThreads   int
	clusterAddr, out         string

	trajPath, trajOut string
	trajWarm          bool

	retries, maxFailed, failFrag int
	faultRate                    float64
	faultSeed                    int64

	cacheDir           string
	resume, checkpoint bool

	traceOut, metricsOut, pprofAddr string
}

// register defines qframan's flags on fs, bound to o's fields.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.in, "in", "", "structure file (genstruct text format)")
	fs.StringVar(&o.seq, "seq", "", "build a protein from this one-letter sequence")
	fs.IntVar(&o.fold, "fold", 0, "serpentine fold period for -seq")
	fs.IntVar(&o.dimers, "dimers", 0, "build a water-dimer system of this many dimers")
	fs.IntVar(&o.waterBox, "water", 0, "build an N×N×N water box")
	fs.BoolVar(&o.solvate, "solvate", false, "solvate the -seq protein in water")

	fs.StringVar(&o.partitioner, "partitioner", "qf", "fragmentation engine: qf (peptide/water chemistry rules) or graph (general bond-graph min-cut; required for systems with generic molecules)")
	fs.IntVar(&o.fragSize, "frag-size", 0, "graph partitioner: soft fragment-size target in atoms (0 = default 24)")
	fs.IntVar(&o.fragMax, "frag-max", 0, "graph partitioner: hard fragment-size cap for the cleanup pass (0 = 2×frag-size)")

	fs.Float64Var(&o.fmin, "fmin", 100, "spectrum start (cm⁻¹)")
	fs.Float64Var(&o.fmax, "fmax", 4000, "spectrum end (cm⁻¹)")
	fs.Float64Var(&o.fstep, "fstep", 2, "spectrum step (cm⁻¹)")
	fs.Float64Var(&o.sigma, "sigma", 5, "Gaussian smearing (cm⁻¹); the paper uses 5 gas-phase, 20 solvated")
	fs.IntVar(&o.k, "k", 150, "Lanczos steps; k ≥ 3N (the system's coordinate count) solves the spectrum exactly, as does any system whose one eigendecomposition costs less than k steps")
	fs.StringVar(&o.irOut, "ir", "", "also compute the IR spectrum and write it to this TSV file")
	fs.IntVar(&o.leaders, "leaders", max(1, runtime.NumCPU()/2), "parallel leaders")
	fs.IntVar(&o.kernelThreads, "kernel-threads", 0, "intra-fragment kernel thread budget the leaders' kernels share (0 = GOMAXPROCS; results are bit-identical at any value)")
	fs.StringVar(&o.clusterAddr, "cluster", "", "dispatch fragments to a qfcoord coordinator at this address instead of computing in-process (results stay bit-identical)")
	fs.StringVar(&o.out, "o", "", "spectrum output TSV (default stdout)")

	fs.StringVar(&o.trajPath, "traj", "", "extended-XYZ trajectory: diff frames incrementally and emit one spectrum per frame (topology from -in/-seq/-water, or inferred from frame 0)")
	fs.BoolVar(&o.trajWarm, "traj-warm", true, "warm-start moved fragments' SCF from their previous frame (=0 restores bit-identity with independent per-frame runs)")
	fs.StringVar(&o.trajOut, "traj-out", "", "write per-frame spectra as frame_NNN.tsv into this directory (default: stream to stdout)")

	fs.IntVar(&o.retries, "retries", faults.DefaultRetryPolicy().MaxAttempts, "processing attempts per fragment before a transient failure is final")
	fs.IntVar(&o.maxFailed, "max-failed", 0, "fail-soft budget: complete degraded with up to K failed fragments dropped")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "chaos: inject transient worker failures at this per-attempt probability")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "chaos: injection seed")
	fs.IntVar(&o.failFrag, "fail-frag", -1, "chaos: force this fragment index into deterministic failure")

	fs.StringVar(&o.cacheDir, "cache-dir", "", "content-addressed fragment-result store directory (persists fragment results, for -resume and later runs)")
	fs.BoolVar(&o.resume, "resume", false, "serve fragment results checkpointed by previous runs of -cache-dir")
	fs.BoolVar(&o.checkpoint, "checkpoint", true, "write fragment results to -cache-dir as they complete")

	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON of the run to this file (load in chrome://tracing or Perfetto; summarize with qfstats -trace)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the final metrics snapshot (flat text) to this file; '-' for stderr")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// config maps the flags onto the pipeline configuration. It refuses flag
// combinations that cannot run before touching anything, then opens the
// -cache-dir store, which the caller owns and must Close (nil without one).
// The observability sinks are run's, not the configuration's.
func (o options) config() (core.Config, *store.Store, error) {
	cfg := core.DefaultConfig()
	if o.trajPath != "" {
		// The warm-start hooks and in-memory frame diff are in-process
		// machinery; neither crosses the cluster wire, and per-frame IR
		// output is not plumbed. Refuse rather than silently degrade.
		if o.clusterAddr != "" {
			return cfg, nil, fmt.Errorf("-traj cannot run over -cluster (frame diffing is in-process)")
		}
		if o.irOut != "" {
			return cfg, nil, fmt.Errorf("-ir is not supported with -traj")
		}
	}
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = o.fmin, o.fmax, o.fstep
	cfg.Raman.Sigma = o.sigma
	cfg.Raman.LanczosK = o.k
	cfg.Sched.NumLeaders = o.leaders
	cfg.IR = o.irOut != ""
	if err := o.applyPartitioner(&cfg); err != nil {
		return cfg, nil, err
	}
	o.applyFaults(&cfg)
	if o.clusterAddr != "" {
		cfg.Sched.Backend = cluster.NewClient(o.clusterAddr)
	}
	cstore, err := o.openCache(&cfg)
	return cfg, cstore, err
}

// applyPartitioner resolves the fragmentation engine and wires it into the
// pipeline config.
func (o options) applyPartitioner(cfg *core.Config) error {
	gOpt := fragment.DefaultGraphOptions()
	if o.fragSize > 0 {
		gOpt.TargetAtoms = o.fragSize
	}
	if o.fragMax > 0 {
		gOpt.MaxAtoms = o.fragMax
	}
	p, err := fragment.NewPartitioner(o.partitioner, cfg.Fragment, gOpt)
	if err != nil {
		return err
	}
	cfg.Partitioner = p
	return nil
}

// obsSinks holds the live sinks behind the observability flags until the run
// finishes.
type obsSinks struct {
	tracer               *obs.Tracer
	reg                  *obs.Registry
	traceOut, metricsOut string
}

// startObs starts the pprof server (if requested), builds the tracer/registry,
// and wires the scope into the scheduler config. A SIGUSR1 dumps the current
// metrics snapshot to stderr at any point of a long run (unix only).
func (o options) startObs(cfg *core.Config) *obsSinks {
	if o.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "qframan: pprof:", err)
			}
		}()
	}
	if o.traceOut == "" && o.metricsOut == "" {
		return nil
	}
	s := &obsSinks{reg: obs.NewRegistry(), traceOut: o.traceOut, metricsOut: o.metricsOut}
	if o.traceOut != "" {
		s.tracer = obs.NewTracer()
	}
	cfg.Sched.Obs = obs.NewScope(s.tracer, s.reg)
	par.SetObs(s.reg) // pool occupancy + per-kernel shard timings
	notifyMetricsDump(func() {
		fmt.Fprintln(os.Stderr, "qframan: SIGUSR1 metrics snapshot:")
		s.reg.Snapshot().WriteText(os.Stderr)
	})
	return s
}

// writeStragglers prints the run's straggler table to stderr: the same
// obs.AnalyzeTrace over the same spans that qfstats -trace reads from the
// -trace-out file. Without a tracer there are no spans and no table.
func (s *obsSinks) writeStragglers() error {
	if s == nil || s.tracer == nil {
		return nil
	}
	sum, err := obs.AnalyzeTrace(s.tracer.Snapshot(), 10)
	if err != nil {
		return err
	}
	return sum.WriteText(os.Stderr)
}

// finish writes the trace and metrics files.
func (s *obsSinks) finish() error {
	if s == nil {
		return nil
	}
	if s.traceOut != "" {
		f, err := os.Create(s.traceOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := s.tracer.ExportChromeTrace(bw); err != nil {
			f.Close()
			return err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := s.tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d spans dropped by the capacity backstop\n", d)
		}
	}
	if s.metricsOut != "" {
		w := os.Stderr
		if s.metricsOut != "-" {
			f, err := os.Create(s.metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		bw := bufio.NewWriter(w)
		if err := s.reg.Snapshot().WriteText(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// openCache opens the store (when configured) and wires it into the scheduler
// options. The caller owns the returned store and must Close it.
func (o options) openCache(cfg *core.Config) (*store.Store, error) {
	if o.cacheDir == "" {
		if o.resume {
			return nil, fmt.Errorf("-resume requires -cache-dir")
		}
		return nil, nil
	}
	st, err := store.Open(o.cacheDir)
	if err != nil {
		return nil, err
	}
	cfg.Sched.Cache = sched.CacheOptions{Store: st, Resume: o.resume, ReadOnly: !o.checkpoint}
	return st, nil
}

// applyFaults wires the fault-tolerance flags into the scheduler options.
func (o options) applyFaults(cfg *core.Config) {
	cfg.Sched.Retry.MaxAttempts = o.retries
	cfg.Sched.MaxFailedFragments = o.maxFailed
	if o.faultRate > 0 || o.failFrag >= 0 {
		fc := faults.Config{Seed: o.faultSeed, TransientRate: o.faultRate}
		if o.failFrag >= 0 {
			fc.HardFailFrags = []int{o.failFrag}
		}
		cfg.Sched.Injector = faults.NewInjector(fc)
	}
}

// buildSystem reads or generates the structure the source flags name.
func (o options) buildSystem() (*structure.System, error) {
	switch {
	case o.in != "":
		f, err := os.Open(o.in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return structure.ReadSystem(f)
	case o.seq != "":
		p, err := structure.BuildProteinFolded(o.seq, o.fold)
		if err != nil {
			return nil, err
		}
		if o.solvate {
			return structure.SolvateInWater(p, 5.0, 2.4), nil
		}
		return p, nil
	case o.dimers > 0:
		return structure.BuildWaterDimerSystem(o.dimers), nil
	case o.waterBox > 0:
		return structure.BuildWaterBox(o.waterBox, o.waterBox, o.waterBox, struct{ X, Y, Z float64 }{}), nil
	}
	return nil, fmt.Errorf("provide one of -in, -seq, -dimers, -water")
}

func run(o options) error {
	if o.kernelThreads > 0 {
		par.SetBudget(o.kernelThreads)
	}
	var sys *structure.System
	var err error
	if o.trajPath != "" && o.in == "" && o.seq == "" && o.dimers == 0 && o.waterBox == 0 {
		// No topology source: runTraj infers one from the first frame.
	} else {
		sys, err = o.buildSystem()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "system: %d atoms, %d residues, %d waters, %d molecules\n",
			sys.NumAtoms(), len(sys.Residues), len(sys.Waters), len(sys.Molecules))
	}

	cfg, cstore, err := o.config()
	if err != nil {
		return err
	}
	if cstore != nil {
		defer cstore.Close()
	}
	sinks := o.startObs(&cfg)
	if o.trajPath != "" {
		return runTraj(o.trajPath, o.trajWarm, o.trajOut, sys, cfg, sinks, o.out)
	}
	t0 := time.Now()
	res, err := core.ComputeRaman(sys, cfg)
	if err != nil {
		return err
	}
	st := res.Decomposition.Stats
	if st.Partitioner == "graph" {
		fmt.Fprintf(os.Stderr, "fragments[graph]: %d total (%d parts, %d cut bonds, %d bonded pairs, %d spatial pairs); sizes %d–%d atoms\n",
			st.TotalFragments, st.NumParts, st.NumCutBonds, st.NumBondedPairs, st.NumSpatialPairs,
			st.MinAtoms, st.MaxAtoms)
	} else {
		fmt.Fprintf(os.Stderr, "fragments: %d total (%d residue, %d concap, %d water, %d rr pairs, %d rw pairs, %d ww pairs); sizes %d–%d atoms\n",
			st.TotalFragments, st.NumResidueFragments, st.NumConcaps, st.NumWaterFragments,
			st.NumRRPairs, st.NumRWPairs, st.NumWWPairs, st.MinAtoms, st.MaxAtoms)
	}
	fmt.Fprintf(os.Stderr, "tasks: %d over %d leaders; elapsed %v\n",
		res.SchedReport.NumTasks, len(res.SchedReport.Leaders), time.Since(t0))
	if cstore != nil {
		rep := res.SchedReport
		fmt.Fprintf(os.Stderr, "cache: %d hits (%d resumed, %d deduped), %d misses",
			rep.CacheHits, rep.Resumed, rep.Deduped, rep.CacheMisses)
		if rep.StoreErrors > 0 {
			fmt.Fprintf(os.Stderr, ", %d store errors", rep.StoreErrors)
		}
		ss := cstore.Stats()
		fmt.Fprintf(os.Stderr, "; store: %d objects, %d bytes\n", ss.Objects, ss.Bytes)
	}
	if o.clusterAddr != "" {
		rep := res.SchedReport
		fmt.Fprintf(os.Stderr, "cluster: %d unique fragments dispatched to %s; %d computed, %d tier hits, %d deduped in-run, %d reassigns\n",
			rep.NumTasks, o.clusterAddr, rep.CacheMisses, rep.Resumed, rep.Deduped, rep.Requeues)
	}
	if rep := res.SchedReport; rep.Retries > 0 || rep.Requeues > 0 || rep.Panics > 0 || rep.Degraded {
		fmt.Fprintf(os.Stderr, "faults: %d retries, %d straggler requeues, %d recovered panics\n",
			rep.Retries, rep.Requeues, rep.Panics)
		if rep.Degraded {
			fmt.Fprintf(os.Stderr, "DEGRADED RUN: fragments %v failed; their Eq. 1 terms are missing from the spectrum\n",
				rep.Failed)
		}
	}
	if err := sinks.writeStragglers(); err != nil {
		return err
	}
	if err := sinks.finish(); err != nil {
		return err
	}

	w := os.Stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeSpectrumTSV(w, "# wavenumber_cm-1\traman_intensity", res.Spectrum); err != nil {
		return err
	}
	if o.irOut != "" {
		f, err := os.Create(o.irOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := writeSpectrumTSV(f, "# wavenumber_cm-1\tir_intensity", res.IRSpectrum); err != nil {
			return err
		}
	}
	return nil
}
