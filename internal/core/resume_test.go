package core

import (
	"math"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// cacheConfig attaches a checkpoint store at dir to a fast test config.
// The returned store must be closed by the caller (via t.Cleanup here).
func cacheConfig(t *testing.T, dir string, resume bool) Config {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cfg := fastConfig()
	cfg.Sched.Cache = sched.CacheOptions{Store: s, Resume: resume}
	return cfg
}

// TestResumeBitIdenticalSpectrum is the tentpole end-to-end guarantee: a run
// killed mid-flight by a deterministic hard fault, then resumed from its
// checkpoint store, produces the bit-identical spectrum of an uninterrupted
// run — on the real engine, through assembly and the spectrum solver.
func TestResumeBitIdenticalSpectrum(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)

	// Uninterrupted reference, with its own store (checkpointing on, so the
	// served-vs-computed paths match the resumed run's exactly).
	ref, err := ComputeRaman(sys, cacheConfig(t, t.TempDir(), false))
	if err != nil {
		t.Fatal(err)
	}

	// Crash: fragment 0 is a 3-atom water, dispatched after the larger pair
	// fragments (fresh work goes largest first), so the crash leaves
	// completed checkpoints behind.
	dir := t.TempDir()
	crash := cacheConfig(t, dir, false)
	crash.Sched.Injector = faults.NewInjector(faults.Config{Seed: 1, HardFailFrags: []int{0}})
	if _, err := ComputeRaman(sys, crash); err == nil {
		t.Fatal("hard-failed run reported success")
	}

	// Resume into the same store.
	res, err := ComputeRaman(sys, cacheConfig(t, dir, true))
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if res.SchedReport.Resumed == 0 {
		t.Fatal("resume served nothing from the crashed run's checkpoints")
	}
	if !specEqual(ref.Spectrum, res.Spectrum) {
		t.Fatal("resumed spectrum is not bit-identical to the uninterrupted run")
	}

	// Warm rerun: everything is served, nothing recomputes, same bits.
	warm, err := ComputeRaman(sys, cacheConfig(t, dir, true))
	if err != nil {
		t.Fatal(err)
	}
	rep := warm.SchedReport
	if rep.CacheMisses != 0 {
		t.Fatalf("warm rerun recomputed %d fragments, want 0", rep.CacheMisses)
	}
	if rep.CacheHits == 0 || rep.CacheHits != rep.Resumed+rep.Deduped {
		t.Fatalf("inconsistent warm accounting: hits=%d resumed=%d deduped=%d",
			rep.CacheHits, rep.Resumed, rep.Deduped)
	}
	if !specEqual(ref.Spectrum, warm.Spectrum) {
		t.Fatal("warm-cache spectrum is not bit-identical to the reference")
	}
}

// TestCachedRunMatchesCleanRun: attaching a store must not change the
// physics. A cache-backed run serves rigid water copies from one producer's
// record rotated into each copy's frame, so it differs from a storeless run
// only by frame-rotation rounding (~1e-12 relative), never by more: the
// spectra must agree to far better than any physical tolerance, though not
// bit-for-bit.
func TestCachedRunMatchesCleanRun(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)
	clean, err := ComputeRaman(sys, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := ComputeRaman(sys, cacheConfig(t, t.TempDir(), false))
	if err != nil {
		t.Fatal(err)
	}
	if cached.SchedReport.Deduped == 0 {
		t.Fatal("dimer waters did not dedupe — the comparison proves nothing")
	}
	var peak float64
	for _, v := range clean.Spectrum.Intensity {
		peak = math.Max(peak, math.Abs(v))
	}
	for i := range clean.Spectrum.Intensity {
		if d := math.Abs(clean.Spectrum.Intensity[i] - cached.Spectrum.Intensity[i]); d > 1e-6*peak {
			t.Fatalf("bin %d: cache-backed spectrum deviates by %.3g (peak %.3g) from the storeless run",
				i, d, peak)
		}
	}
}
