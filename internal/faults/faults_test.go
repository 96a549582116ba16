package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	base := errors.New("scf: not converged after 400 iterations")
	if Classify(base) != Deterministic {
		t.Fatal("plain engine errors must classify deterministic")
	}
	if Classify(MarkTransient(base)) != Transient {
		t.Fatal("marked error must classify transient")
	}
	// The marker must survive fmt wrapping.
	wrapped := fmt.Errorf("sched: fragment 3: %w", MarkTransient(base))
	if !IsTransient(wrapped) {
		t.Fatal("transience lost through %w wrapping")
	}
	// And survive errors.Join.
	if !IsTransient(errors.Join(base, MarkTransient(base))) {
		t.Fatal("transience lost through errors.Join")
	}
	if IsTransient(nil) {
		t.Fatal("nil is not transient")
	}
	if Classify((&InjectedError{Hard: true})) != Deterministic {
		t.Fatal("hard injected error must classify deterministic")
	}
	if Classify((&InjectedError{})) != Transient {
		t.Fatal("injected error must classify transient")
	}
	if Classify(Recovered("boom")) != Transient {
		t.Fatal("recovered panic must classify transient")
	}
}

func TestMarkTransientNil(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) must stay nil")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, TransientRate: 0.3, NaNRate: 0.1, PanicRate: 0.05}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for frag := 0; frag < 200; frag++ {
		for attempt := 1; attempt <= 4; attempt++ {
			pa, pb := a.Plan(frag, attempt), b.Plan(frag, attempt)
			if pa.NaN != pb.NaN || pa.Panic != pb.Panic ||
				(pa.Err == nil) != (pb.Err == nil) {
				t.Fatalf("same seed diverged at frag %d attempt %d", frag, attempt)
			}
		}
	}
	c := NewInjector(Config{Seed: 43, TransientRate: 0.3})
	same := 0
	for frag := 0; frag < 200; frag++ {
		if (a.Plan(frag, 1).Err == nil) == (c.Plan(frag, 1).Err == nil) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("different seeds produced identical fault plans")
	}
}

func TestInjectorRates(t *testing.T) {
	inj := NewInjector(Config{Seed: 7, TransientRate: 0.25})
	faulted := 0
	const n = 2000
	for frag := 0; frag < n; frag++ {
		if inj.Plan(frag, 1).Err != nil {
			faulted++
		}
	}
	got := float64(faulted) / n
	if got < 0.18 || got > 0.32 {
		t.Fatalf("transient rate 0.25 realized as %.3f", got)
	}
}

func TestInjectorCapAndForcedFragments(t *testing.T) {
	inj := NewInjector(Config{
		Seed:           1,
		TransientRate:  1.0, // every capped attempt faults
		MaxPerFragment: 2,
		HardFailFrags:  []int{9},
	})
	if inj.Plan(0, 1).Err == nil || inj.Plan(0, 2).Err == nil {
		t.Fatal("attempts within the cap must fault at rate 1")
	}
	if inj.Plan(0, 3).Err != nil {
		t.Fatal("attempts past MaxPerFragment must run clean")
	}
	for attempt := 1; attempt <= 5; attempt++ {
		err := inj.Plan(9, attempt).Err
		if err == nil || IsTransient(err) {
			t.Fatalf("hard-fail fragment must fail deterministically on attempt %d", attempt)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Base: time.Millisecond, Max: 8 * time.Millisecond, Multiplier: 2}
	var prev time.Duration
	for attempt := 1; attempt <= 6; attempt++ {
		d := p.Backoff(0, attempt)
		if d < prev {
			t.Fatalf("backoff shrank at attempt %d: %v < %v", attempt, d, prev)
		}
		if d > p.Max {
			t.Fatalf("backoff %v exceeds cap %v", d, p.Max)
		}
		prev = d
	}
	if p.Backoff(0, 1) != time.Millisecond {
		t.Fatalf("first backoff %v, want Base", p.Backoff(0, 1))
	}
	if p.Backoff(0, 6) != 8*time.Millisecond {
		t.Fatalf("late backoff %v, want cap", p.Backoff(0, 6))
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	p := DefaultRetryPolicy()
	p.Seed = 5
	if p.Backoff(3, 2) != p.Backoff(3, 2) {
		t.Fatal("jittered backoff must be deterministic")
	}
	lo, hi := float64(p.Base)*2*(1-p.JitterFraction), float64(p.Base)*2*(1+p.JitterFraction)
	d := float64(p.Backoff(3, 2))
	if d < lo || d > hi {
		t.Fatalf("attempt-2 backoff %v outside jitter band [%v, %v]", time.Duration(d), time.Duration(lo), time.Duration(hi))
	}
}

func TestAttempts(t *testing.T) {
	if (RetryPolicy{}).Attempts() != 1 {
		t.Fatal("zero policy must allow exactly one attempt")
	}
	if (RetryPolicy{MaxAttempts: 4}).Attempts() != 4 {
		t.Fatal("MaxAttempts not honored")
	}
}

func TestUniformRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		u := Uniform(9, i, 1, 3)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
}
