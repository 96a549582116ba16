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
	"runtime"
	"sort"
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
	// GAGQ at k = 10 on a real assembled system: the 3×3×3 water box (243
	// coordinates), whose spectrum takes the Lanczos route at k = 10, against
	// its exact spectrum (k ≥ 3N). A smaller system would be cheaper to
	// diagonalize than to run the recurrence on, and LanczosSpectrum would
	// solve it exactly. The pipeline always builds the averaged rule; the
	// plain Gauss rule at equal k is compared with it by lanczos'
	// BenchmarkGaussVsGAGQ.
	sys := structure.BuildWaterBox(3, 3, 3, geom.Vec3{})
	cfg := fig12Config(20)
	cfg.Raman.LanczosK = 3 * sys.NumAtoms()
	exact, err := core.ComputeRaman(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	exact.Spectrum.Normalize()
	b.Run("GAGQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt := cfg.Raman
			opt.LanczosK = 10
			reg := obs.NewRegistry()
			opt.Obs = obs.NewScope(nil, reg)
			spec, err := raman.LanczosSpectrum(exact.Global, opt)
			if err != nil {
				b.Fatal(err)
			}
			if reg.Counter(obs.MetricLanczosSteps).Value() == 0 {
				b.Fatal("the spectrum took the exact route: no quadrature to compare")
			}
			spec.Normalize()
			b.ReportMetric(raman.CosineSimilarity(spec, exact.Spectrum), "cos-vs-exact")
		}
	})
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
// tracer and metrics registry — on the
// fixed-seed examples/waterbox workload (27 molecules, 195 fragments, same
// Raman config as the example), whose µs-scale γ-mode cycles give the
// worst span-to-work ratio. Compare the sub-benchmarks:
//
//	go test -run '^$' -bench ObsOverhead -benchtime 3x -count 3 .
//
// The acceptance bar is "on" within 3% of "off"; the paired sub-benchmark
// is the one that can resolve it:
//
//	go test -run '^$' -bench ObsOverhead/paired -benchtime 30x .
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
			if _, err := core.ComputeRaman(sys, cfg); err != nil {
				b.Fatal(err)
			}
			if instrument {
				b.StopTimer()
				spans := cfg.Sched.Obs.T.Snapshot()
				b.ReportMetric(float64(len(spans)), "spans")
				if sum, err := obs.AnalyzeTrace(spans, 10); err != nil || sum.Classes == 0 {
					b.Fatalf("instrumented run's spans give no straggler table: %v", err)
				}
				b.StartTimer()
				// A truncated trace would understate the recording cost.
				if d := cfg.Sched.Obs.T.Dropped(); d > 0 {
					b.Fatalf("tracer dropped %d spans under DefaultMaxSpans", d)
				}
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
	// The paired variant interleaves uninstrumented and instrumented runs
	// back-to-back within each iteration and times every pair on its own, so
	// slow machine drift (thermal, noisy neighbors) cancels out of each
	// pair's overhead. The pairs alternate which run goes first, and each run
	// starts after a collection, so neither pays for the other's garbage.
	// overhead-pct is the median pair's overhead and overhead-q1-pct and
	// overhead-q3-pct bound the middle half of the pairs: the 3% bar is
	// resolved when the quartiles clear it, which takes tens of pairs on a
	// 2-vCPU host (-benchtime 30x). ns/op is the cost of one off+on pair.
	b.Run("paired", func(b *testing.B) {
		sys := structure.BuildWaterBox(3, 3, 3, geom.Vec3{})
		cfg := core.DefaultConfig()
		cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 50, 4000, 5
		cfg.Raman.Sigma = 20
		cfg.Raman.LanczosK = 120
		pct := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			var ns [2]time.Duration // uninstrumented, instrumented
			for j := 0; j < 2; j++ {
				on := (i + j) % 2
				var tr *obs.Tracer
				cfg.Sched.Obs = obs.Scope{}
				if on == 1 {
					tr = obs.NewTracer()
					cfg.Sched.Obs = obs.NewScope(tr, obs.NewRegistry())
				}
				runtime.GC()
				t0 := time.Now()
				if _, err := core.ComputeRaman(sys, cfg); err != nil {
					b.Fatal(err)
				}
				ns[on] = time.Since(t0)
				if d := tr.Dropped(); d > 0 {
					b.Fatalf("tracer dropped %d spans under DefaultMaxSpans", d)
				}
			}
			pct = append(pct, 100*(float64(ns[1])/float64(ns[0])-1))
		}
		sort.Float64s(pct)
		b.ReportMetric(quantile(pct, 0.5), "overhead-pct")
		b.ReportMetric(quantile(pct, 0.25), "overhead-q1-pct")
		b.ReportMetric(quantile(pct, 0.75), "overhead-q3-pct")
	})
}

// quantile is the q-quantile of the sorted xs, interpolated linearly between
// the order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
