package sched

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qframan/internal/constants"
	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
)

// fakeDecomposition builds a synthetic decomposition of nf fragments with
// the given atom counts — enough structure for the dispatch order and the ledger,
// no quantum content.
func fakeDecomposition(sizes []int) *fragment.Decomposition {
	dec := &fragment.Decomposition{Fragments: make([]fragment.Fragment, len(sizes))}
	for i, n := range sizes {
		dec.Fragments[i] = fragment.Fragment{
			ID:  i,
			Els: make([]constants.Element, n),
		}
	}
	return dec
}

func randomSizes(rng *rand.Rand, nf int) []int {
	sizes := make([]int, nf)
	for i := range sizes {
		sizes[i] = 3 + rng.Intn(66) // the paper's 9–68-atom span, roughly
	}
	return sizes
}

// fakeData is the deterministic per-fragment payload: comparing it across
// runs proves a chaotic run produced exactly the fault-free numbers.
func fakeData(fragID int) *hessian.FragmentData {
	h := linalg.NewMatrix(1, 1)
	h.Set(0, 0, float64(fragID)*1.25+0.5)
	return &hessian.FragmentData{Hess: h}
}

// fakeProcess sleeps a deterministic sub-millisecond time and returns the
// fragment's payload.
func fakeProcess(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
	time.Sleep(time.Duration(faults.Uniform(11, f.ID, 0, 1) * float64(time.Millisecond)))
	return fakeData(f.ID), nil
}

func chaosRetry() faults.RetryPolicy {
	return faults.RetryPolicy{
		MaxAttempts:    5,
		Base:           200 * time.Microsecond,
		Max:            2 * time.Millisecond,
		Multiplier:     2,
		JitterFraction: 0.2,
	}
}

// checkExactlyOnce asserts every fragment's result is present, correct, and
// was accepted exactly once across all leaders.
func checkExactlyOnce(t *testing.T, dec *fragment.Decomposition, datas []*hessian.FragmentData, report *Report) {
	t.Helper()
	if len(datas) != len(dec.Fragments) {
		t.Fatalf("got %d results for %d fragments", len(datas), len(dec.Fragments))
	}
	for i, d := range datas {
		if d == nil || d.Hess == nil {
			t.Fatalf("fragment %d lost", i)
		}
		if got, want := d.Hess.At(0, 0), float64(i)*1.25+0.5; got != want {
			t.Fatalf("fragment %d carries payload %v, want %v", i, got, want)
		}
	}
	if len(report.Failed) != 0 || report.Degraded {
		t.Fatalf("unexpected degradation: failed %v", report.Failed)
	}
	accepted := 0
	for _, ls := range report.Leaders {
		accepted += ls.Fragments
	}
	if accepted != len(dec.Fragments) {
		t.Fatalf("leaders accepted %d completions for %d fragments (duplicates or losses)", accepted, len(dec.Fragments))
	}
}

// TestChaosExactlyOnceAllPolicies is the scheduler's chaos property test:
// random fragment sizes, injected transient errors, NaN divergences, panics,
// stragglers (plus watchdog-induced duplicate completions) under three
// dispatch policies — 1, 2 and 4 leaders pulling from one master — and every
// fragment must still complete exactly once with the right payload.
func TestChaosExactlyOnceAllPolicies(t *testing.T) {
	for pol, leaders := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			leaders, seed := leaders, seed
			t.Run(fmt.Sprintf("policy%d_seed%d", pol, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				dec := fakeDecomposition(randomSizes(rng, 30+rng.Intn(31)))
				opt := DefaultOptions()
				opt.NumLeaders = leaders
				opt.StragglerTimeout = 10 * time.Millisecond
				opt.Retry = chaosRetry()
				opt.Injector = faults.NewInjector(faults.Config{
					Seed:           seed,
					TransientRate:  0.15,
					NaNRate:        0.10,
					PanicRate:      0.05,
					StragglerRate:  0.05,
					StragglerDelay: 25 * time.Millisecond,
					MaxPerFragment: 2,
				})
				opt.Process = fakeProcess
				datas, report, err := Run(dec, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkExactlyOnce(t, dec, datas, report)
			})
		}
	}
}

// TestChaosAcceptance is the PR's acceptance scenario: a ≥40-fragment run
// with ≥10% of fragments hit by transient worker failures plus two
// artificial stragglers completes with zero lost fragments, a positive
// retry count, and results identical to a fault-free run.
func TestChaosAcceptance(t *testing.T) {
	const nf = 48
	sizes := make([]int, nf)
	for i := range sizes {
		sizes[i] = 6 + i%30
	}

	clean := func() ([]*hessian.FragmentData, *Report) {
		dec := fakeDecomposition(sizes)
		opt := DefaultOptions()
		opt.NumLeaders = 4
		opt.Process = fakeProcess
		datas, report, err := Run(dec, opt)
		if err != nil {
			t.Fatal(err)
		}
		return datas, report
	}
	cleanDatas, _ := clean()

	inj := faults.NewInjector(faults.Config{
		Seed:           9,
		TransientRate:  0.30,
		StragglerFrags: []int{5, 17},
		StragglerDelay: 60 * time.Millisecond,
		MaxPerFragment: 2,
	})
	// The injector is a pure function of the seed: count the fault
	// population up front so the ≥10% claim is checked, not assumed.
	faulted := 0
	for fi := 0; fi < nf; fi++ {
		if a := inj.Plan(fi, 1); a.Err != nil || a.NaN || a.Panic {
			faulted++
		}
	}
	if faulted < nf/10 {
		t.Fatalf("seed 9 injects first-attempt faults into only %d/%d fragments — below the 10%% floor", faulted, nf)
	}

	dec := fakeDecomposition(sizes)
	opt := DefaultOptions()
	opt.NumLeaders = 4
	opt.StragglerTimeout = 15 * time.Millisecond
	opt.Retry = chaosRetry()
	opt.Injector = inj
	opt.Process = fakeProcess
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, dec, datas, report)
	if report.Retries == 0 {
		t.Fatal("chaos run reported zero retries despite injected transient failures")
	}
	if report.Requeues == 0 {
		t.Fatal("stragglers were never requeued by the watchdog")
	}
	for i := range datas {
		if datas[i].Hess.MaxAbsDiff(cleanDatas[i].Hess) != 0 {
			t.Fatalf("fragment %d differs between chaotic and fault-free runs", i)
		}
	}
}

// TestDeterministicFailureDegrades: a fragment forced into deterministic
// failure consumes the fail-soft budget — the run completes degraded with
// exactly that fragment reported failed and everything else intact.
func TestDeterministicFailureDegrades(t *testing.T) {
	dec := fakeDecomposition(randomSizes(rand.New(rand.NewSource(2)), 40))
	opt := DefaultOptions()
	opt.NumLeaders = 3
	opt.Retry = chaosRetry()
	opt.MaxFailedFragments = 1
	opt.Injector = faults.NewInjector(faults.Config{Seed: 4, HardFailFrags: []int{7}})
	opt.Process = fakeProcess
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded || len(report.Failed) != 1 || report.Failed[0] != 7 {
		t.Fatalf("want degraded run with Failed == [7], got degraded=%v failed=%v", report.Degraded, report.Failed)
	}
	if datas[7] != nil {
		t.Fatal("failed fragment must have a nil result slot")
	}
	for i, d := range datas {
		if i != 7 && d == nil {
			t.Fatalf("fragment %d lost alongside the failed one", i)
		}
	}
}

// TestDeterministicFailureAbortsWithoutBudget: with no fail-soft budget the
// run must abort with the *real* error — not the old masked
// "fragment N never processed".
func TestDeterministicFailureAbortsWithoutBudget(t *testing.T) {
	dec := fakeDecomposition([]int{6, 6, 6, 6, 6, 6, 6, 6})
	opt := DefaultOptions()
	opt.NumLeaders = 2
	opt.Retry = chaosRetry()
	opt.Injector = faults.NewInjector(faults.Config{Seed: 1, HardFailFrags: []int{0}})
	opt.Process = fakeProcess
	_, _, err := Run(dec, opt)
	if err == nil {
		t.Fatal("hard failure with zero budget must abort the run")
	}
	if strings.Contains(err.Error(), "never processed") {
		t.Fatalf("root error masked by bookkeeping: %v", err)
	}
	if !strings.Contains(err.Error(), "forced divergence") {
		t.Fatalf("abort error does not carry the injected root cause: %v", err)
	}
}

// TestMultiLeaderErrorsJoined: when several leaders fail concurrently every
// error must surface (errors.Join), not just the lowest-indexed leader's.
func TestMultiLeaderErrorsJoined(t *testing.T) {
	const nl = 4
	dec := fakeDecomposition([]int{6, 6, 6, 6})
	var entered atomic.Int32
	ready := make(chan struct{})
	opt := DefaultOptions()
	opt.NumLeaders = nl
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		// Barrier: every leader must be mid-fragment before any fails, so
		// all four failures race into the abort path together.
		if entered.Add(1) == nl {
			close(ready)
		}
		<-ready
		return nil, fmt.Errorf("engine exploded on fragment %d", f.ID)
	}
	_, _, err := Run(dec, opt)
	if err == nil {
		t.Fatal("run must fail")
	}
	for fi := 0; fi < nl; fi++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("engine exploded on fragment %d", fi)) {
			t.Fatalf("error from fragment %d masked: %v", fi, err)
		}
	}
}

// TestPanicRecoveredAndRetried: a panic in the fragment engine is recovered
// at the leader, classified transient, and the retry completes the run.
func TestPanicRecoveredAndRetried(t *testing.T) {
	dec := fakeDecomposition([]int{6, 6, 6, 6, 6, 6})
	var calls sync.Map
	opt := DefaultOptions()
	opt.NumLeaders = 2
	opt.Retry = chaosRetry()
	opt.Process = func(f *fragment.Fragment, o Options) (*hessian.FragmentData, error) {
		if _, loaded := calls.LoadOrStore(f.ID, true); !loaded && f.ID == 2 {
			panic("worker segfault stand-in")
		}
		return fakeData(f.ID), nil
	}
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, dec, datas, report)
	if report.Panics != 1 {
		t.Fatalf("recovered panics = %d, want 1", report.Panics)
	}
	if report.Retries != 1 {
		t.Fatalf("retries = %d, want 1", report.Retries)
	}
}

// TestNaNResultRejected: a result carrying NaN — an organic divergence the
// solvers missed — must be rejected, and with no retry able to fix a
// deterministic failure it lands in the fail-soft ledger.
func TestNaNResultRejected(t *testing.T) {
	dec := fakeDecomposition([]int{6, 6, 6})
	opt := DefaultOptions()
	opt.NumLeaders = 1
	opt.Retry = chaosRetry()
	opt.MaxFailedFragments = 1
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		d := fakeData(f.ID)
		if f.ID == 1 {
			d.Hess.Set(0, 0, math.NaN())
		}
		return d, nil
	}
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failed) != 1 || report.Failed[0] != 1 {
		t.Fatalf("NaN fragment not in failure ledger: %v", report.Failed)
	}
	if datas[0] == nil || datas[2] == nil {
		t.Fatal("healthy fragments lost")
	}
	if report.Retries != 0 {
		t.Fatalf("organic NaN must not be retried (deterministic), got %d retries", report.Retries)
	}
}

// TestTransientExhaustionFallsBackToBudget: a fragment whose transient
// failures outlast the retry budget degrades (budget permitting) instead of
// aborting.
func TestTransientExhaustionFallsBackToBudget(t *testing.T) {
	dec := fakeDecomposition([]int{6, 6, 6, 6})
	opt := DefaultOptions()
	opt.NumLeaders = 2
	opt.Retry = chaosRetry() // 5 attempts
	opt.MaxFailedFragments = 1
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		if f.ID == 3 {
			return nil, faults.MarkTransient(fmt.Errorf("flaky interconnect"))
		}
		return fakeData(f.ID), nil
	}
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failed) != 1 || report.Failed[0] != 3 {
		t.Fatalf("exhausted fragment not failed: %v", report.Failed)
	}
	if report.Retries != opt.Retry.Attempts()-1 {
		t.Fatalf("retries = %d, want %d (budget exhausted)", report.Retries, opt.Retry.Attempts()-1)
	}
	if datas[3] != nil {
		t.Fatal("exhausted fragment must have nil data")
	}
}
