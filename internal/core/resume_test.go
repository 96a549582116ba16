package core

import (
	"math"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/geom"
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

// TestResumeBitIdenticalSpectrum is the end-to-end checkpoint guarantee: a
// run killed mid-flight by a deterministic hard fault, then resumed from its
// checkpoint store, produces the bit-identical spectrum of a run that never
// saw a store — on the real engine, through assembly and the spectrum
// solver.
func TestResumeBitIdenticalSpectrum(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)

	// Uninterrupted reference, storeless.
	ref, err := ComputeRaman(sys, fastConfig())
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

// TestCachedRunMatchesCleanRun: attaching a store changes no bit. Every run
// fills a content class from one canonical record rotated into each
// member's frame, so a store-backed run and a storeless one carry the same
// fragment data and the same spectrum, bin for bin.
func TestCachedRunMatchesCleanRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *structure.System
	}{
		{"dimer", structure.BuildWaterDimerSystem(1)},
		{"box222", structure.BuildWaterBox(2, 2, 2, geom.Vec3{})},
	} {
		sys := tc.sys
		t.Run(tc.name, func(t *testing.T) {
			clean, err := ComputeRaman(sys, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			cached, err := ComputeRaman(sys, cacheConfig(t, t.TempDir(), false))
			if err != nil {
				t.Fatal(err)
			}
			if cached.SchedReport.Deduped == 0 {
				t.Fatal("waters did not dedupe — the comparison proves nothing")
			}
			differ := 0
			for i, v := range clean.Spectrum.Intensity {
				if math.Float64bits(v) != math.Float64bits(cached.Spectrum.Intensity[i]) {
					differ++
				}
			}
			if differ != 0 {
				t.Fatalf("%d of %d bins of the store-backed spectrum differ in bits from the storeless run",
					differ, len(clean.Spectrum.Intensity))
			}
		})
	}
}
