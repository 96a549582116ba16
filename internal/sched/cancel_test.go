package sched

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
)

// TestCancelAbortsRun: closing the cancel channel mid-run must abort with
// ErrCancelled instead of draining the queue.
func TestCancelAbortsRun(t *testing.T) {
	dec := cacheDecomposition(24)
	cancel := make(chan struct{})
	started := make(chan struct{}, 64)
	opt := DefaultOptions()
	opt.NumLeaders = 2
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		started <- struct{}{}
		time.Sleep(time.Millisecond)
		return fakeData(f.ID), nil
	}
	go func() {
		<-started // at least one fragment is in flight
		close(cancel)
	}()
	opt.Cancel = cancel
	_, _, err := Run(dec, opt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrCancelled", err)
	}
}

// TestCancelAlreadyClosed: a run handed a closed cancel channel does no
// engine work at all.
func TestCancelAlreadyClosed(t *testing.T) {
	dec := cacheDecomposition(8)
	cancel := make(chan struct{})
	close(cancel)
	var calls atomic.Int64
	opt := DefaultOptions()
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		calls.Add(1)
		return fakeData(f.ID), nil
	}
	opt.Cancel = cancel
	if _, _, err := Run(dec, opt); !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("pre-cancelled run made %d engine calls, want 0", calls.Load())
	}
}

// TestCancelNilChannelIsNormalRun: the zero Options keep today's behavior.
func TestCancelNilChannelIsNormalRun(t *testing.T) {
	dec := cacheDecomposition(6)
	opt := DefaultOptions()
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		return fakeData(f.ID), nil
	}
	datas, rep, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, dec, datas, rep)
}

// TestCacheProducerTakeoverUnderCancellation is the cross-job takeover
// property behind the serving daemon: job A (one tenant) is cancelled while
// the representative of a shared key class is mid-fragment and its
// attempt dies with the job; job B (another tenant), sharing the store,
// must take over production of that key and finish with results
// bit-identical to an undisturbed reference run.
func TestCacheProducerTakeoverUnderCancellation(t *testing.T) {
	const nf = 6
	mkDec := func() *fragment.Decomposition {
		dec := cacheDecomposition(nf)
		// Fragments 0 and 3 share one geometry: 0 represents the class.
		dec.Fragments[3].Pos = dec.Fragments[0].Pos
		return dec
	}

	// Reference: job B's decomposition alone against a clean store.
	ref, _, err := Run(mkDec(), cacheOptions(t, openStore(t, t.TempDir()), false, nil))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sA := openStore(t, dir)
	cancel := make(chan struct{})
	inFlight := make(chan struct{})
	optA := cacheOptions(t, sA, false, nil)
	optA.NumLeaders = 1 // one leader: fragment 0 is the first and only in-flight attempt
	optA.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		if f.ID == 0 {
			close(inFlight)
			<-cancel // the producer attempt hangs until the job is killed…
			return nil, errors.New("job torn down mid-fragment")
		}
		return fakeData(f.ID), nil
	}
	optA.Cancel = cancel
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(mkDec(), optA)
		done <- err
	}()
	<-inFlight
	close(cancel)
	if err := <-done; !errors.Is(err, ErrCancelled) && err == nil {
		t.Fatalf("cancelled producer job returned %v", err)
	}
	sA.Close()

	// Job B: same geometry, same store, different tenant. The shared key's
	// producer never checkpointed, so B must compute it for itself.
	sB := openStore(t, dir)
	var calls atomic.Int64
	datas, rep, err := Run(mkDec(), cacheOptions(t, sB, true, &calls))
	if err != nil {
		t.Fatalf("takeover job failed: %v", err)
	}
	if len(datas) != nf {
		t.Fatalf("takeover job returned %d results, want %d", len(datas), nf)
	}
	for i := range ref {
		if !datas[i].BitEqual(ref[i]) {
			t.Fatalf("fragment %d: takeover result differs bitwise from reference", i)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("takeover job computed nothing: the dead producer's key was served from nowhere")
	}
	// The shared class must have exactly one producer in job B, with the
	// copy deduped from it.
	if rep.Deduped == 0 {
		t.Fatalf("shared key class not deduped in takeover job (report: %+v)", rep)
	}
}

// TestCancelledJobCheckpointsSurvive: fragments job A completed before the
// cancel must be resumable by job B — the cancel loses in-flight work only.
func TestCancelledJobCheckpointsSurvive(t *testing.T) {
	const nf = 10
	dir := t.TempDir()
	sA := openStore(t, dir)
	cancel := make(chan struct{})
	var completedByA atomic.Int64
	optA := cacheOptions(t, sA, false, nil)
	optA.NumLeaders = 1
	optA.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		n := completedByA.Add(1)
		if n == 4 { // kill the job after three clean completions
			close(cancel)
			return nil, errors.New("torn down")
		}
		return fakeData(f.ID), nil
	}
	optA.Cancel = cancel
	if _, _, err := Run(cacheDecomposition(nf), optA); err == nil {
		t.Fatal("cancelled run reported success")
	}
	sA.Close()

	sB := openStore(t, dir)
	datas, rep, err := Run(cacheDecomposition(nf), cacheOptions(t, sB, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, cacheDecomposition(nf), datas, rep)
	if rep.Resumed == 0 {
		t.Fatal("no checkpoint from the cancelled job was resumed")
	}
}
