package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/sched"
)

// victimX is the x-offset marking a sabotage tenant's geometry: the chaos
// engine recognizes its fragments by position and holds them hostage until
// their job is cancelled.
const victimX = 500.0

// chaosEngine delegates to the real SCF+DFPT engine, except fragments at
// the victim offset block until their job's cancel handle closes — a
// deterministic way to catch a job mid-run.
func chaosEngine(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
	if len(f.Pos) > 0 && f.Pos[0].X > victimX/2 {
		<-opt.Cancel
		return nil, fmt.Errorf("fragment %d: backend torn down: %w", f.ID, sched.ErrCancelled)
	}
	return sched.DefaultProcess(f, opt)
}

// chaosConfig runs the real engine (spectra on) over a shared store.
func chaosConfig(t *testing.T) Config {
	return Config{
		Store:      openStore(t, t.TempDir()),
		Runners:    3,
		NumLeaders: 1,
		Process:    chaosEngine,
	}
}

// waterJob submits a single-water text system with O–H bond length d.
func waterJob(tenant string, d, x0 float64) SubmitRequest {
	return SubmitRequest{
		Tenant: tenant,
		System: SystemSpec{Kind: "text", Text: waterText(d, x0)},
	}
}

// TestChaosKillMidRunSurvivorsBitIdentical is the service-grade chaos
// property: victim jobs are killed while their fragments are mid-engine;
// every other tenant's job must complete, and their spectra must be
// bit-identical to the same submissions against an undisturbed daemon —
// cancellation must not perturb anyone else's numerics, even though all
// jobs share one store and one runner pool.
func TestChaosKillMidRunSurvivorsBitIdentical(t *testing.T) {
	type sub struct {
		tenant string
		d      float64
	}
	survivors := []sub{
		{"alice", 0.95}, {"alice", 0.96},
		{"bob", 0.97}, {"bob", 0.98},
	}

	run := func(withVictims bool) map[string]Status {
		s := New(chaosConfig(t))
		ts := httptest.NewServer(s.Handler())
		defer func() { ts.Close(); s.Close() }()

		var victims []string
		if withVictims {
			for i := 0; i < 2; i++ {
				// Victim geometries sit at the marker offset; rigid-motion
				// canonicalization ignores the offset, so give them distinct
				// bond lengths to also keep distinct store keys.
				sr := submitOK(t, ts, waterJob("mallory", 1.05+0.01*float64(i), victimX))
				victims = append(victims, sr.ID)
			}
		}
		ids := make(map[string]string) // "tenant/d" → job id
		for _, sb := range survivors {
			sr := submitOK(t, ts, waterJob(sb.tenant, sb.d, 0))
			ids[fmt.Sprintf("%s/%.2f", sb.tenant, sb.d)] = sr.ID
		}

		if withVictims {
			// Wait until each victim is actually running (its blocked
			// fragment is in-engine), then kill it mid-run.
			for _, id := range victims {
				deadline := time.Now().Add(10 * time.Second)
				for getStatus(t, ts, id, false).State == JobQueued {
					if time.Now().After(deadline) {
						t.Fatalf("victim %s never started", id)
					}
					time.Sleep(time.Millisecond)
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			for _, id := range victims {
				if st := waitState(t, ts, id, 20*time.Second); st.State != JobCancelled {
					t.Fatalf("victim %s ended %q, want cancelled", id, st.State)
				}
			}
		}

		out := make(map[string]Status)
		for key, id := range ids {
			st := waitState(t, ts, id, 60*time.Second)
			if st.State != JobDone {
				t.Fatalf("survivor %s (%s) ended %q: %s", key, id, st.State, st.Error)
			}
			out[key] = getStatus(t, ts, id, true)
		}
		return out
	}

	chaotic := run(true)
	clean := run(false)
	for key, want := range clean {
		got := chaotic[key]
		if got.Spectrum == nil || want.Spectrum == nil {
			t.Fatalf("%s: missing spectrum (chaotic %v, clean %v)", key, got.Spectrum != nil, want.Spectrum != nil)
		}
		if len(got.Spectrum.Intensity) != len(want.Spectrum.Intensity) {
			t.Fatalf("%s: spectrum length %d vs %d", key, len(got.Spectrum.Intensity), len(want.Spectrum.Intensity))
		}
		for i := range want.Spectrum.Intensity {
			if got.Spectrum.Intensity[i] != want.Spectrum.Intensity[i] || got.Spectrum.Freq[i] != want.Spectrum.Freq[i] {
				t.Fatalf("%s: spectrum differs at sample %d under chaos: %g vs %g",
					key, i, got.Spectrum.Intensity[i], want.Spectrum.Intensity[i])
			}
		}
	}
}

// TestCrossTenantDedupAccounting is the shared-store payoff and the
// acceptance criterion: a second tenant submitting an overlapping system
// reports cross-job cache hits (dedup > 0), pays no recomputation for the
// shared fragments, and gets a bit-identical spectrum.
func TestCrossTenantDedupAccounting(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Process = nil // real engine, no sabotage
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	first := submitOK(t, ts, waterJob("alice", 0.96, 0))
	stA := waitState(t, ts, first.ID, 60*time.Second)
	if stA.State != JobDone {
		t.Fatalf("first job: %q (%s)", stA.State, stA.Error)
	}
	if stA.Report.CrossJobHits != 0 {
		t.Fatalf("first job claims %d cross-job hits on an empty store", stA.Report.CrossJobHits)
	}

	// Same geometry bytes: the canonical store key collides and the serve
	// contract (identical submission → bit-identical spectrum) applies. A
	// merely *translated* copy still dedups — the fingerprint is rigid-
	// motion canonical — but its spectrum agrees only to rounding, since
	// the de-canonicalizing rotation is recomputed in the new frame.
	second := submitOK(t, ts, waterJob("bob", 0.96, 0))
	stB := waitState(t, ts, second.ID, 60*time.Second)
	if stB.State != JobDone {
		t.Fatalf("second job: %q (%s)", stB.State, stB.Error)
	}
	rep := stB.Report
	if rep.CacheHits == 0 || rep.CrossJobHits == 0 {
		t.Fatalf("overlapping job reports no dedup: %+v", rep)
	}
	if rep.CrossTenantHits == 0 {
		t.Fatalf("hit on alice's fragment not attributed cross-tenant: %+v", rep)
	}
	if rep.CacheMisses != 0 {
		t.Fatalf("fully-overlapping job recomputed %d fragments", rep.CacheMisses)
	}

	specA := getStatus(t, ts, first.ID, true).Spectrum
	specB := getStatus(t, ts, second.ID, true).Spectrum
	for i := range specA.Intensity {
		if specA.Intensity[i] != specB.Intensity[i] {
			t.Fatalf("cached spectrum differs at sample %d: %g vs %g", i, specA.Intensity[i], specB.Intensity[i])
		}
	}
}
