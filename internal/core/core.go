// Package core is the QF-RAMAN orchestrator — the paper's primary
// contribution assembled end to end: quantum fragmentation of the input
// system (Eq. 1), the per-fragment engine (DFT ground state, then the
// analytic Hessian, ∂α/∂ξ and ∂μ/∂ξ from DFPT responses) on the
// master–leader–worker runtime, signed assembly of the sparse mass-weighted
// Hessian and derivative vectors, and the Raman-spectrum solver (Eq. 5:
// Lanczos+GAGQ, or the exact measure where it costs less).
package core

import (
	"fmt"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/structure"
)

// Config bundles the pipeline settings.
type Config struct {
	Fragment fragment.Options
	// Partitioner overrides the fragmentation engine. nil selects the QF
	// engine configured by Fragment; set a fragment.GraphPartitioner for
	// the general graph engine (see FRAGMENTATION.md).
	Partitioner fragment.Partitioner
	Sched       sched.Options
	Raman       raman.Options
	// IR additionally computes the infrared spectrum from the dipole
	// derivatives the fragment engine already produces.
	IR bool
}

// DefaultConfig returns production settings.
func DefaultConfig() Config {
	return Config{
		Fragment: fragment.DefaultOptions(),
		Sched:    sched.DefaultOptions(),
		Raman:    raman.DefaultOptions(),
	}
}

// Result is the full pipeline output.
type Result struct {
	Spectrum      *raman.Spectrum
	IRSpectrum    *raman.Spectrum
	Decomposition *fragment.Decomposition
	Global        *hessian.Global
	SchedReport   *sched.Report
}

// ComputeRaman runs the QF-RAMAN pipeline on a molecular system.
func ComputeRaman(sys *structure.System, cfg Config) (*Result, error) {
	part := cfg.Partitioner
	if part == nil {
		part = fragment.QFPartitioner{Opt: cfg.Fragment}
	}
	sc := cfg.Sched.Obs
	_, dspan := sc.Begin("decompose", "core", obs.A("atoms", int64(sys.NumAtoms())))
	dec, err := part.Partition(sys)
	dspan.End()
	if err != nil {
		return nil, fmt.Errorf("core: decompose: %w", err)
	}
	return ComputeRamanDecomposed(sys, dec, cfg)
}

// ComputeRamanDecomposed runs the pipeline on an externally supplied
// decomposition — the validation ladder uses it with a single whole-system
// "direct" fragment to quantify the fragmentation error.
func ComputeRamanDecomposed(sys *structure.System, dec *fragment.Decomposition, cfg Config) (*Result, error) {
	if len(dec.Fragments) == 0 {
		return nil, fmt.Errorf("core: system produced no fragments")
	}
	datas, report, err := sched.Run(dec, cfg.Sched)
	if err != nil {
		return nil, fmt.Errorf("core: fragment jobs: %w", err)
	}
	sc := cfg.Sched.Obs
	// A degraded run (fail-soft budget consumed) completes with nil data at
	// report.Failed; the assembly drops exactly those fragments' signed
	// Eq. 1 terms and records them in Global.Dropped.
	_, aspan := sc.Begin("assemble", "core", obs.A("fragments", int64(len(dec.Fragments))))
	g, err := hessian.AssembleDegraded(dec, sys.Masses(), datas, !cfg.Sched.Job.SkipAlpha, report.Failed)
	aspan.End()
	if err != nil {
		return nil, fmt.Errorf("core: assemble: %w", err)
	}
	res := &Result{Decomposition: dec, Global: g, SchedReport: report}
	if cfg.Sched.Job.SkipAlpha {
		return res, nil // Hessian-only run
	}
	res.Spectrum, res.IRSpectrum, err = SpectrumFromGlobal(g, cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SpectrumFromGlobal solves the Raman (and, when cfg.IR, infrared) spectrum
// from an assembled Global. One-shot runs and the trajectory engine share
// this path, so a trajectory frame's spectrum is produced by exactly the
// code — and exactly the floating-point schedule — as a one-shot run over
// the same assembly.
func SpectrumFromGlobal(g *hessian.Global, cfg Config) (*raman.Spectrum, *raman.Spectrum, error) {
	sc := cfg.Sched.Obs
	ropt := cfg.Raman
	var span *obs.Span
	// The solver's route and counts land on each spectrum's span.
	ropt.Obs, span = sc.Begin("spectrum", "core")
	spec, err := raman.LanczosSpectrum(g, ropt)
	span.End()
	if err != nil {
		return nil, nil, fmt.Errorf("core: spectrum: %w", err)
	}
	var ir *raman.Spectrum
	if cfg.IR {
		ropt.Obs, span = sc.Begin("spectrum.ir", "core")
		ir, err = raman.LanczosIRSpectrum(g, ropt)
		span.End()
		if err != nil {
			return nil, nil, fmt.Errorf("core: IR spectrum: %w", err)
		}
	}
	return spec, ir, nil
}
