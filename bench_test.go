// Package qframan_test runs the paper's end-to-end evaluation pieces that
// this repository can measure on one machine as Go benchmarks: the Fig. 12
// spectra through the real pipeline, the Lanczos/GAGQ ablation, the
// checkpoint store's cold and warm runs, the §VI-A fragment statistics and
// the cost of instrumentation. Each benchmark reports the quantities the
// paper plots; EXPERIMENTS.md records the paper-vs-measured comparison.
// The paper's Figs. 8–11 and Table I are supercomputer measurements with no
// measured counterpart here yet (ROADMAP items 2 and 10).
//
// Run everything:
//
//	go test -run '^$' -bench=. -benchmem -benchtime=1x .
package qframan_test

import (
	"testing"
	"time"

	"qframan/internal/core"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// --------------------------------------------------------------- Fig. 12 --

// fig12Config returns a fast spectrum configuration for the end-to-end runs.
func fig12Config(sigma float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 100, 4000, 10
	cfg.Raman.Sigma = sigma
	cfg.Raman.LanczosK = 80
	return cfg
}

func spectrumPeak(s *raman.Spectrum, lo, hi float64) (freq, inten float64) {
	for i, f := range s.Freq {
		if f >= lo && f <= hi && s.Intensity[i] > inten {
			inten = s.Intensity[i]
			freq = f
		}
	}
	return
}

func BenchmarkFig12_Spectra_GasPhaseProtein(b *testing.B) {
	// Paper Fig. 12(a): gas-phase protein with CH₂-bend (~1450) and
	// amide-I (~1650) features; smearing 5 cm⁻¹.
	sys, err := structure.BuildProtein("GAG")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.ComputeRaman(sys, fig12Config(5))
		if err != nil {
			b.Fatal(err)
		}
		res.Spectrum.Normalize()
		f1, _ := spectrumPeak(res.Spectrum, 1300, 1560)
		f2, _ := spectrumPeak(res.Spectrum, 1560, 1850)
		b.ReportMetric(f1, "CH-bend-cm-1")
		b.ReportMetric(f2, "amide-I-cm-1")
	}
}

func BenchmarkFig12_Spectra_WaterBox(b *testing.B) {
	// Paper Fig. 12(b), blue: pure water with O–H bend (~1640) and
	// stretch (~3400) bands; smearing 20 cm⁻¹.
	sys := structure.BuildWaterBox(2, 2, 2, geom.Vec3{})
	for i := 0; i < b.N; i++ {
		res, err := core.ComputeRaman(sys, fig12Config(20))
		if err != nil {
			b.Fatal(err)
		}
		res.Spectrum.Normalize()
		f1, _ := spectrumPeak(res.Spectrum, 1400, 1900)
		f2, _ := spectrumPeak(res.Spectrum, 3100, 3900)
		b.ReportMetric(f1, "OH-bend-cm-1")
		b.ReportMetric(f2, "OH-stretch-cm-1")
	}
}

func BenchmarkFig12_Spectra_SolvatedProtein(b *testing.B) {
	// Paper Fig. 12(b), green: protein + explicit water; water bands
	// dominate, C–H stretch remains discernible.
	protein, err := structure.BuildProtein("GAG")
	if err != nil {
		b.Fatal(err)
	}
	sys := structure.SolvateInWater(protein, 3.0, 2.4)
	for i := 0; i < b.N; i++ {
		res, err := core.ComputeRaman(sys, fig12Config(20))
		if err != nil {
			b.Fatal(err)
		}
		res.Spectrum.Normalize()
		_, ch := spectrumPeak(res.Spectrum, 2800, 3350)
		_, oh := spectrumPeak(res.Spectrum, 3350, 3900)
		b.ReportMetric(ch, "CH-stretch-rel")
		b.ReportMetric(oh, "OH-stretch-rel")
	}
}

// ------------------------------------------------------------- Ablations --

func BenchmarkAblation_LanczosGAGQ(b *testing.B) {
	// GAGQ vs plain Gauss at equal k on a real assembled system.
	sys := structure.BuildWaterDimerSystem(2)
	cfg := fig12Config(20)
	cfg.UseDense = true
	dense, err := core.ComputeRaman(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dense.Spectrum.Normalize()
	for _, gagq := range []struct {
		name string
		on   bool
	}{{"GAGQ", true}, {"PlainGauss", false}} {
		b.Run(gagq.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := cfg.Raman
				opt.LanczosK = 10
				opt.UseGAGQ = gagq.on
				spec, err := raman.LanczosSpectrum(dense.Global, opt)
				if err != nil {
					b.Fatal(err)
				}
				spec.Normalize()
				b.ReportMetric(raman.CosineSimilarity(spec, dense.Spectrum), "cos-vs-dense")
			}
		})
	}
}

// ------------------------------------------------------ Checkpoint store --

// BenchmarkStore_WaterBoxCache measures the end-to-end value of the
// content-addressed fragment cache on the waterbox system: Cold runs the
// full engine while checkpointing (and already dedupes the box's rigid
// water copies); Warm resumes from a populated store and recomputes
// nothing. The hit-rate and recompute metrics are the acceptance numbers.
func BenchmarkStore_WaterBoxCache(b *testing.B) {
	sys := structure.BuildWaterBox(2, 2, 2, geom.Vec3{})
	cfg := fig12Config(20)
	cfg.UseDense = true

	runWithStore := func(b *testing.B, dir string, resume bool) *core.Result {
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c := cfg
		c.Sched.Cache = sched.CacheOptions{Store: s, Resume: resume}
		res, err := core.ComputeRaman(sys, c)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	report := func(b *testing.B, res *core.Result) {
		rep := res.SchedReport
		total := rep.CacheHits + rep.CacheMisses
		b.ReportMetric(float64(rep.CacheMisses), "recomputed-frags")
		b.ReportMetric(100*float64(rep.CacheHits)/float64(total), "hit+dedup-%")
	}

	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report(b, runWithStore(b, b.TempDir(), false))
		}
	})
	b.Run("Warm", func(b *testing.B) {
		dir := b.TempDir()
		runWithStore(b, dir, false) // populate outside the timing loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			report(b, runWithStore(b, dir, true))
		}
	})
}

// ----------------------------------------------------- §VI-A statistics --

func BenchmarkFragmentStats_WaterBox(b *testing.B) {
	// Streaming fragment statistics; at -benchtime=1x with a 324³ box this
	// reproduces the paper's 101,250,000-atom water system (the default
	// size here is smaller to keep `go test -bench=.` minutes-scale).
	for i := 0; i < b.N; i++ {
		atoms, frags, pairs := fragment.WaterBoxStats(60, 60, 60, 4.0)
		b.ReportMetric(float64(atoms), "atoms")
		b.ReportMetric(float64(pairs)/float64(frags), "ww-pairs-per-molecule")
	}
}

// --------------------------------------------------------- Observability --

// BenchmarkObsOverhead measures the full cost of instrumentation — span
// tracer, metrics registry, and the per-fragment straggler ledger — on the
// fixed-seed examples/waterbox workload (27 molecules, 195 fragments, same
// Raman config as the example), whose µs-scale γ-mode cycles give the
// worst span-to-work ratio. Compare the sub-benchmarks:
//
//	go test -run '^$' -bench ObsOverhead -benchtime 3x -count 3 .
//
// The acceptance bar is "on" within 3% of "off".
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, instrument bool) {
		sys := structure.BuildWaterBox(3, 3, 3, geom.Vec3{})
		cfg := core.DefaultConfig()
		cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 50, 4000, 5
		cfg.Raman.Sigma = 20
		cfg.Raman.LanczosK = 120
		for i := 0; i < b.N; i++ {
			if instrument {
				cfg.Sched.Obs = obs.NewScope(obs.NewTracer(), obs.NewRegistry())
			}
			res, err := core.ComputeRaman(sys, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if instrument {
				b.StopTimer()
				b.ReportMetric(float64(len(cfg.Sched.Obs.T.Snapshot())), "spans")
				b.StartTimer()
				// A truncated trace would understate the recording cost.
				if d := cfg.Sched.Obs.T.Dropped(); d > 0 {
					b.Fatalf("tracer dropped %d spans under DefaultMaxSpans", d)
				}
				if res.SchedReport.Stragglers == nil {
					b.Fatal("instrumented run produced no straggler summary")
				}
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
	// The paired variant interleaves uninstrumented and instrumented runs
	// back-to-back within each iteration, so slow machine drift (thermal,
	// noisy neighbors) cancels out of the reported overhead-pct metric.
	// ns/op is the cost of one off+on pair.
	b.Run("paired", func(b *testing.B) {
		sys := structure.BuildWaterBox(3, 3, 3, geom.Vec3{})
		cfg := core.DefaultConfig()
		cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 50, 4000, 5
		cfg.Raman.Sigma = 20
		cfg.Raman.LanczosK = 120
		var offNS, onNS int64
		for i := 0; i < b.N; i++ {
			cfg.Sched.Obs = obs.Scope{}
			t0 := time.Now()
			if _, err := core.ComputeRaman(sys, cfg); err != nil {
				b.Fatal(err)
			}
			offNS += int64(time.Since(t0))

			tr := obs.NewTracer()
			cfg.Sched.Obs = obs.NewScope(tr, obs.NewRegistry())
			t1 := time.Now()
			if _, err := core.ComputeRaman(sys, cfg); err != nil {
				b.Fatal(err)
			}
			onNS += int64(time.Since(t1))
			if d := tr.Dropped(); d > 0 {
				b.Fatalf("tracer dropped %d spans under DefaultMaxSpans", d)
			}
		}
		b.ReportMetric(100*(float64(onNS)/float64(offNS)-1), "overhead-pct")
	})
}
