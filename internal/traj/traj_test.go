package traj

import (
	"math"
	"sync/atomic"
	"testing"

	"qframan/internal/core"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// testConfig returns small-but-real pipeline settings: the 2-water box's
// fragments are tiny, and the coarse Raman axis keeps the spectra short.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 200, 4000, 25
	cfg.Raman.Sigma = 30
	cfg.Raman.LanczosK = 30
	return cfg
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// frames builds an nw-water trajectory of n perturbed frames and the
// per-frame Systems.
func trajSystems(t *testing.T, nx, ny, nz, n int, popt structure.PerturbOptions) []*structure.System {
	t.Helper()
	base := structure.BuildWaterBox(nx, ny, nz, geom.Vec3{})
	popt.Frames = n
	frames := structure.PerturbedTrajectory(base, popt)
	out := make([]*structure.System, len(frames))
	for i, f := range frames {
		sys, err := structure.ApplyFrame(base, f)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sys
	}
	return out
}

func bitEqualSpectrum(t *testing.T, what string, a, b *raman.Spectrum) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil spectrum (%v, %v)", what, a == nil, b == nil)
	}
	if len(a.Freq) != len(b.Freq) || len(a.Intensity) != len(b.Intensity) {
		t.Fatalf("%s: spectrum shapes differ", what)
	}
	for i := range a.Intensity {
		if math.Float64bits(a.Intensity[i]) != math.Float64bits(b.Intensity[i]) {
			t.Fatalf("%s: intensity[%d] differs: %x vs %x", what, i,
				math.Float64bits(a.Intensity[i]), math.Float64bits(b.Intensity[i]))
		}
	}
	for i := range a.Freq {
		if math.Float64bits(a.Freq[i]) != math.Float64bits(b.Freq[i]) {
			t.Fatalf("%s: freq[%d] differs", what, i)
		}
	}
}

// TestFrameZeroBitIdenticalOneShot: the acceptance anchor — a trajectory
// run's first frame must be byte-for-byte the spectrum a one-shot qframan
// run produces over the same system and an equivalent store.
func TestFrameZeroBitIdenticalOneShot(t *testing.T) {
	sys := structure.BuildWaterBox(2, 1, 1, geom.Vec3{})

	oneCfg := testConfig()
	oneCfg.Sched.Cache = sched.CacheOptions{Store: openStore(t, t.TempDir())}
	oneShot, err := core.ComputeRaman(sys, oneCfg)
	if err != nil {
		t.Fatal(err)
	}

	trajCfg := testConfig()
	trajCfg.Sched.Cache = sched.CacheOptions{Store: openStore(t, t.TempDir())}
	eng := New(Options{Core: trajCfg})
	res, err := eng.Step(sys)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualSpectrum(t, "frame 0", res.Spectrum, oneShot.Spectrum)

	r := res.Report
	if r.Moved != r.Fragments || r.Reused != 0 || r.Rotated != 0 {
		t.Fatalf("frame 0 classified %+v; want everything moved", r)
	}
	if r.Recomputed == 0 || r.Scheduled != r.Fragments {
		t.Fatalf("frame 0 scheduled=%d recomputed=%d of %d", r.Scheduled, r.Recomputed, r.Fragments)
	}
}

// TestWarmOffBitIdentityAcrossFrames: with warm-start off, every frame of a
// trajectory run must be bit-identical to an independent per-frame run
// resumed against a store of its own — the -traj-warm=0 contract.
func TestWarmOffBitIdentityAcrossFrames(t *testing.T) {
	systems := trajSystems(t, 2, 2, 1, 3, structure.PerturbOptions{
		MoveFrac: 0.3, Jitter: 0.02, Seed: 7,
	})

	trajCfg := testConfig()
	trajCfg.Sched.Cache = sched.CacheOptions{Store: openStore(t, t.TempDir()), Resume: true}
	eng := New(Options{Core: trajCfg})

	refCfg := testConfig()
	refCfg.Sched.Cache = sched.CacheOptions{Store: openStore(t, t.TempDir()), Resume: true}

	sawReuse := false
	for i, sys := range systems {
		res, err := eng.Step(sys)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ref, err := core.ComputeRaman(sys, refCfg)
		if err != nil {
			t.Fatalf("frame %d reference: %v", i, err)
		}
		bitEqualSpectrum(t, res.Report.String(), res.Spectrum, ref.Spectrum)
		r := res.Report
		if r.Moved+r.Rotated+r.Reused != r.Fragments {
			t.Fatalf("frame %d classification does not partition: %+v", i, r)
		}
		if i > 0 && r.Reused > 0 {
			sawReuse = true
		}
		if i > 0 && r.Moved == r.Fragments {
			t.Fatalf("frame %d: everything moved under a 50%% perturbation", i)
		}
	}
	if !sawReuse {
		t.Fatal("no frame reused any in-memory fragment data")
	}
}

// TestWarmStartGolden: warm-started frames must agree with cold ones within
// the SCF tolerance while spending fewer reference-SCF iterations.
func TestWarmStartGolden(t *testing.T) {
	systems := trajSystems(t, 2, 1, 1, 3, structure.PerturbOptions{
		MoveFrac: 0.8, Jitter: 0.03, Seed: 11,
	})

	run := func(warm bool) (specs []*raman.Spectrum, iters, warmed int) {
		cfg := testConfig()
		cfg.Sched.Cache = sched.CacheOptions{Store: openStore(t, t.TempDir()), Resume: true}
		eng := New(Options{Core: cfg, WarmStart: warm})
		for i, sys := range systems {
			res, err := eng.Step(sys)
			if err != nil {
				t.Fatalf("warm=%v frame %d: %v", warm, i, err)
			}
			specs = append(specs, res.Spectrum)
			if i > 0 { // frame 0 is identical either way: no seeds exist yet
				iters += res.Report.RefIters
				warmed += res.Report.WarmStarted
			}
		}
		return specs, iters, warmed
	}

	warmSpecs, warmIters, warmed := run(true)
	coldSpecs, coldIters, coldWarmed := run(false)
	if coldWarmed != 0 {
		t.Fatalf("cold run reported %d warm starts", coldWarmed)
	}
	if warmed == 0 {
		t.Fatal("warm run never seeded a reference SCF")
	}
	if warmIters >= coldIters {
		t.Fatalf("warm start saved nothing: %d iterations warm vs %d cold", warmIters, coldIters)
	}
	for i := range warmSpecs {
		var peak, diff float64
		for j := range warmSpecs[i].Intensity {
			peak = math.Max(peak, math.Abs(coldSpecs[i].Intensity[j]))
			diff = math.Max(diff, math.Abs(warmSpecs[i].Intensity[j]-coldSpecs[i].Intensity[j]))
		}
		if peak == 0 || diff/peak > 1e-6 {
			t.Fatalf("frame %d: warm spectrum deviates by %g of peak %g", i, diff, peak)
		}
	}
}

// fakeOptions overrides the engine with a deterministic 3N-dimensional
// payload (waterbox fragment frames rotate, so 1×1 fakes would be rejected
// by the store's tensor rotation) and counts invocations.
func fakeOptions(t *testing.T, calls *atomic.Int64) core.Config {
	t.Helper()
	cfg := testConfig()
	cfg.Sched.Job.SkipAlpha = true // no spectrum: this is a scheduling test
	cfg.Sched.Cache = sched.CacheOptions{Store: openStore(t, t.TempDir()), Resume: true}
	cfg.Sched.Process = func(f *fragment.Fragment, _ sched.Options) (*hessian.FragmentData, error) {
		calls.Add(1)
		n3 := 3 * f.NumAtoms()
		fd := &hessian.FragmentData{Hess: linalg.NewMatrix(n3, n3)}
		for i := 0; i < n3; i++ {
			fd.Hess.Set(i, i, 1+float64(i))
		}
		return fd, nil
	}
	cfg.Sched.NumLeaders = 1
	return cfg
}

// TestRecomputePerFrameEqualsChangedKeys is the frame-diff property test:
// for every frame, the engine-invocation count must equal exactly the
// number of *distinct new* content keys — fragments whose fingerprint
// changed, minus store dedup — computed here by an independent seen-set
// simulation over store.Fingerprint. The long two-leader case is the stress
// form: a moved molecule's monomer terms all share one new key, and no
// interleaving of leaders may ever compute such a key twice.
func TestRecomputePerFrameEqualsChangedKeys(t *testing.T) {
	for _, tc := range []struct {
		name            string
		frames, leaders int
		popt            structure.PerturbOptions
	}{
		{"4 frames, 1 leader", 4, 1, structure.PerturbOptions{MoveFrac: 0.3, Jitter: 0.05, Seed: 3}},
		{"201 frames, 2 leaders", 201, 2, structure.PerturbOptions{MoveFrac: 0.15, Jitter: 0.01, Seed: 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			systems := trajSystems(t, 2, 2, 2, tc.frames, tc.popt)
			var calls atomic.Int64
			cfg := fakeOptions(t, &calls)
			cfg.Sched.NumLeaders = tc.leaders
			eng := New(Options{Core: cfg})

			seen := make(map[store.Key]bool)
			for i, sys := range systems {
				// Independent expectation: which distinct keys are new this frame?
				dec, err := fragment.Decompose(sys, cfg.Fragment)
				if err != nil {
					t.Fatal(err)
				}
				expected := 0
				for j := range dec.Fragments {
					k, _ := store.Fingerprint(&dec.Fragments[j], cfg.Sched.Job)
					if !seen[k] {
						expected++
						seen[k] = true
					}
				}

				calls.Store(0)
				res, err := eng.Step(sys)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				r := res.Report
				if r.Recomputed != expected || int(calls.Load()) != expected {
					t.Fatalf("frame %d: recomputed=%d engine calls=%d, want exactly %d new keys (%+v)",
						i, r.Recomputed, calls.Load(), expected, r)
				}
				if r.Moved+r.Rotated+r.Reused != r.Fragments {
					t.Fatalf("frame %d classification does not partition: %+v", i, r)
				}
				if i == 0 && r.Moved != r.Fragments {
					t.Fatalf("frame 0: moved=%d of %d", r.Moved, r.Fragments)
				}
				if i > 0 && r.Reused == 0 {
					t.Fatalf("frame %d reused nothing under a %.0f%% perturbation", i, 100*tc.popt.MoveFrac)
				}
			}
		})
	}
}

// TestRigidMotionNeverRecomputes: a whole-system rigid translation changes
// every coordinate but no fingerprint — every fragment must be scheduled
// through the store's rotation path with zero engine calls. (Per-molecule
// rigid motion is *not* recompute-free: a 2-body fragment spanning a moved
// and an unmoved water genuinely changes shape.)
func TestRigidMotionNeverRecomputes(t *testing.T) {
	base := structure.BuildWaterBox(2, 2, 1, geom.Vec3{})
	systems := []*structure.System{base}
	for _, shift := range []geom.Vec3{{X: 0.25, Y: -0.5}, {X: 1.5, Z: 0.75}} {
		moved := structure.BuildWaterBox(2, 2, 1, geom.Vec3{})
		for i := range moved.Atoms {
			moved.Atoms[i].Pos = base.Atoms[i].Pos.Add(shift)
		}
		systems = append(systems, moved)
	}
	var calls atomic.Int64
	eng := New(Options{Core: fakeOptions(t, &calls)})
	if _, err := eng.Step(systems[0]); err != nil {
		t.Fatal(err)
	}
	for i, sys := range systems[1:] {
		calls.Store(0)
		res, err := eng.Step(sys)
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		r := res.Report
		if r.Recomputed != 0 || calls.Load() != 0 {
			t.Fatalf("frame %d: rigid motion recomputed %d fragments (%d calls)", i+1, r.Recomputed, calls.Load())
		}
		if r.Moved != 0 {
			t.Fatalf("frame %d: rigid motion classified %d fragments as moved", i+1, r.Moved)
		}
		if r.Rotated == 0 {
			t.Fatalf("frame %d: no fragment took the store rotation path (%+v)", i+1, r)
		}
		if r.CacheHits != r.Scheduled {
			t.Fatalf("frame %d: %d of %d scheduled fragments served from store", i+1, r.CacheHits, r.Scheduled)
		}
	}
}

// TestStorelessRecomputedCountsEngineCalls: without a store the scheduler
// still runs each content class once and fills its members from that
// record, and the frame report counts it: on every frame Recomputed is the
// number of engine calls, and every other scheduled fragment is a hit.
func TestStorelessRecomputedCountsEngineCalls(t *testing.T) {
	systems := trajSystems(t, 2, 2, 1, 4, structure.PerturbOptions{MoveFrac: 0.5, Jitter: 0.05, Seed: 5})
	var calls atomic.Int64
	cfg := fakeOptions(t, &calls)
	cfg.Sched.Cache = sched.CacheOptions{}
	eng := New(Options{Core: cfg})
	for i, sys := range systems {
		calls.Store(0)
		res, err := eng.Step(sys)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		r := res.Report
		if r.Recomputed != int(calls.Load()) {
			t.Fatalf("frame %d: recomputed=%d for %d engine calls (%+v)", i, r.Recomputed, calls.Load(), r)
		}
		if r.Recomputed+r.CacheHits != r.Scheduled {
			t.Fatalf("frame %d: recomputed=%d + hits=%d != scheduled=%d", i, r.Recomputed, r.CacheHits, r.Scheduled)
		}
		if i == 0 && (r.Recomputed == 0 || r.CacheHits == 0) {
			t.Fatalf("frame 0: recomputed=%d hits=%d; want both > 0 (the box's waters share classes)", r.Recomputed, r.CacheHits)
		}
	}
}

// TestDiffOnly: the computation-free Differ must report the same
// classification a computing run would schedule.
func TestDiffOnly(t *testing.T) {
	systems := trajSystems(t, 2, 2, 1, 3, structure.PerturbOptions{
		MoveFrac: 0.4, Jitter: 0.05, Seed: 9,
	})
	cfg := testConfig()
	eng := New(Options{Core: cfg})
	r0, err := eng.Diff(systems[0])
	if err != nil {
		t.Fatal(err)
	}
	if r0.Moved != r0.Fragments || r0.Frame != 0 {
		t.Fatalf("frame 0 diff: %+v", r0)
	}
	// Re-presenting the same frame must classify everything as reused.
	r1, err := eng.Diff(systems[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1.Reused != r1.Fragments || r1.Moved != 0 || r1.Rotated != 0 {
		t.Fatalf("identical frame diff: %+v", r1)
	}
	r2, err := eng.Diff(systems[1])
	if err != nil {
		t.Fatal(err)
	}
	if r2.Moved == 0 || r2.Reused == 0 {
		t.Fatalf("perturbed frame diff found no movement or no reuse: %+v", r2)
	}
	if r2.Moved+r2.Rotated+r2.Reused != r2.Fragments {
		t.Fatalf("diff classification does not partition: %+v", r2)
	}
	if r2.String() == "" {
		t.Fatal("empty report line")
	}
}

// TestStepErrors covers the engine's failure surfaces.
func TestStepErrors(t *testing.T) {
	cfg := testConfig()
	eng := New(Options{Core: cfg})
	if _, err := eng.Step(&structure.System{}); err == nil {
		t.Fatal("empty system accepted")
	}
	if _, err := eng.Diff(&structure.System{}); err == nil {
		t.Fatal("empty system accepted by Diff")
	}
}
