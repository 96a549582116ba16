package sched

import (
	"errors"
	"slices"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// TestDispatchOrder: the master hands one leader the fresh representatives
// largest first, size ties by index, and a retried fragment ahead of the
// fresh work still waiting. Every claim is one pull.
func TestDispatchOrder(t *testing.T) {
	dec := fakeDecomposition([]int{6, 9, 3, 9, 12, 6, 3})
	var claims []int
	opt := DefaultOptions()
	opt.NumLeaders = 1
	opt.Retry = faults.RetryPolicy{MaxAttempts: 2} // no backoff: ready at once
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		claims = append(claims, f.ID)
		if f.ID == 1 && len(claims) == 2 {
			return nil, faults.MarkTransient(errors.New("flaky engine"))
		}
		return fakeData(f.ID), nil
	}
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 1, 1, 3, 0, 5, 2, 6}; !slices.Equal(claims, want) {
		t.Fatalf("claim order %v, want %v", claims, want)
	}
	if report.NumTasks != len(claims) || report.Retries != 1 {
		t.Fatalf("report counts %d pulls and %d retries for %d claims", report.NumTasks, report.Retries, len(claims))
	}
	for i, d := range datas {
		if d == nil || d.Hess.At(0, 0) != fakeData(i).Hess.At(0, 0) {
			t.Fatalf("fragment %d lost or wrong", i)
		}
	}
}

func TestRunWaterDimers(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(3)
	dec, err := fragment.Decompose(sys, fragment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(datas) != len(dec.Fragments) {
		t.Fatalf("results %d for %d fragments", len(datas), len(dec.Fragments))
	}
	for i, d := range datas {
		if d == nil || d.Hess == nil {
			t.Fatalf("fragment %d has no data", i)
		}
		want := 3 * dec.Fragments[i].NumAtoms()
		if d.Hess.Rows != want {
			t.Fatalf("fragment %d Hessian %d×%d, want %d", i, d.Hess.Rows, d.Hess.Cols, want)
		}
	}
	var frags int
	for _, ls := range report.Leaders {
		frags += ls.Fragments
	}
	if frags != len(dec.Fragments) {
		t.Fatalf("leaders report %d fragments, want %d", frags, len(dec.Fragments))
	}
	if report.NumTasks == 0 || report.Elapsed == 0 {
		t.Fatal("report not populated")
	}
}

func TestRunMatchesSerial(t *testing.T) {
	// The runtime schedules the engine, it does not change it: fragments run
	// by two leaders carry the bits of the engine run inline on their class's
	// representative, through the canonical round trip into their own frame.
	sys := structure.BuildWaterDimerSystem(1)
	dec, err := fragment.Decompose(sys, fragment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.NumLeaders = 2
	parallel, _, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	cls := store.Classify(dec.Fragments, opt.Job)
	for _, r := range cls.Reps {
		serial, _, err := hessian.ComputeFragment(&dec.Fragments[r], opt.Job)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := cls.Frames[r].ToCanonical(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cls.Members[r] {
			want, err := cls.Frames[m].FromCanonical(canon)
			if err != nil {
				t.Fatal(err)
			}
			if !parallel[m].BitEqual(want) {
				t.Fatalf("fragment %d: sched.Run with two leaders differs from the engine run inline on fragment %d", m, r)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)
	dec, _ := fragment.Decompose(sys, fragment.DefaultOptions())
	opt := DefaultOptions()
	opt.NumLeaders = 0
	if _, _, err := Run(dec, opt); err == nil {
		t.Fatal("accepted zero leaders")
	}
}
