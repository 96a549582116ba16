// Package faults is the runtime's fault-tolerance toolkit: error
// classification (transient failures worth retrying vs deterministic ones
// worth escalating or dropping), a bounded exponential-backoff retry policy,
// and a deterministic, seedable fault injector for chaos testing the
// master–leader–worker runtime (internal/sched). The paper's runtime
// survives 96,000-node runs because misbehaving workers are recovered, not
// fatal — straggler requeue (Fig. 4(a)) plus the per-fragment retry and
// fail-soft degradation built on this package.
//
// Every injector decision is a pure function of (seed, fragment, attempt):
// two runs with the same seed inject exactly the same faults regardless of
// goroutine scheduling, which makes chaos tests reproducible and race-clean.
package faults

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Class partitions errors by the recovery they deserve.
type Class int

const (
	// Deterministic failures reproduce on retry — the same fragment will
	// fail the same way on any worker (e.g. SCF/DFPT non-convergence at
	// every smearing rung). The scheduler escalates or fail-softs these.
	Deterministic Class = iota
	// Transient failures are environmental — injected chaos, recovered
	// panics, flaky nodes — and are retried with backoff on another
	// attempt.
	Transient
)

func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "deterministic"
}

// transientMarker is the wrapping type MarkTransient uses; Classify
// recognizes it anywhere in an error chain.
type transientMarker struct{ err error }

func (e *transientMarker) Error() string   { return e.err.Error() }
func (e *transientMarker) Unwrap() error   { return e.err }
func (e *transientMarker) Transient() bool { return true }

// MarkTransient wraps err so Classify reports it as Transient. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientMarker{err: err}
}

// Classify inspects the error chain: anything implementing
// `Transient() bool` (returning true) is Transient, everything else —
// including plain engine errors like SCF divergence — is Deterministic.
// Unknown errors default to Deterministic on purpose: retrying a
// reproducible failure only burns node-hours.
func Classify(err error) Class {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return Transient
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				if Classify(e) == Transient {
					return Transient
				}
			}
			return Deterministic
		default:
			return Deterministic
		}
	}
	return Deterministic
}

// IsTransient reports whether Classify(err) == Transient.
func IsTransient(err error) bool { return err != nil && Classify(err) == Transient }

// InjectedError is a fault produced by an Injector. It is Transient unless
// Hard is set (a forced deterministic failure).
type InjectedError struct {
	Frag    int
	Attempt int
	Hard    bool
	Msg     string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s failure (%s) on fragment %d attempt %d",
		map[bool]string{false: "transient", true: "deterministic"}[e.Hard], e.Msg, e.Frag, e.Attempt)
}

// Transient implements the classification marker.
func (e *InjectedError) Transient() bool { return !e.Hard }

// PanicError wraps a panic recovered at a leader so it can travel the error
// path; it classifies as Transient (the work is retried on another attempt,
// matching how a fleet treats a crashed worker process).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string   { return fmt.Sprintf("faults: recovered panic: %v", e.Value) }
func (e *PanicError) Transient() bool { return true }

// Recovered converts a recover() value into a PanicError, capturing the
// stack at the recovery site.
func Recovered(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Action is the injector's verdict for one processing attempt, applied by
// the scheduler around the fragment engine.
type Action struct {
	// Delay stalls the attempt first — an artificial straggler that the
	// watchdog (sched.Options.StragglerTimeout) should requeue.
	Delay time.Duration
	// Err, if non-nil, replaces the attempt's result (the worker "failed"
	// before producing anything).
	Err error
	// Panic makes the attempt panic mid-processing; the leader must
	// recover it.
	Panic bool
	// NaN poisons the attempt's result with NaNs after the engine runs —
	// an injected SCF/DFPT divergence that the scheduler's result scrub
	// must catch and classify as transient.
	NaN bool
}

// Injector plans faults for processing attempts. Implementations must be
// safe for concurrent use and deterministic in (frag, attempt).
type Injector interface {
	Plan(frag, attempt int) Action
}

// Config parameterizes the deterministic injector. Rates are per-attempt
// probabilities in [0,1]; the *Frags lists force a fault on specific
// fragments (first attempt only), which tests use for precise scenarios.
type Config struct {
	Seed int64
	// TransientRate injects plain transient errors.
	TransientRate float64
	// NaNRate poisons results with NaN (injected divergence).
	NaNRate float64
	// PanicRate makes attempts panic.
	PanicRate float64
	// StragglerRate delays attempts by StragglerDelay.
	StragglerRate  float64
	StragglerDelay time.Duration
	// StragglerFrags always stall on their first attempt.
	StragglerFrags []int
	// HardFailFrags fail deterministically on every attempt — the fragment
	// can only complete via fail-soft degradation.
	HardFailFrags []int
	// MaxPerFragment caps random injections (errors, NaNs, panics) per
	// fragment so a bounded retry budget always suffices; attempts past
	// the cap run clean. Zero means the default of 2.
	MaxPerFragment int
}

// NewInjector builds the deterministic injector; a nil-equivalent (all
// rates zero, no forced fragments) plans no faults.
func NewInjector(cfg Config) *RandomInjector {
	if cfg.MaxPerFragment <= 0 {
		cfg.MaxPerFragment = 2
	}
	inj := &RandomInjector{cfg: cfg}
	inj.straggle = make(map[int]bool, len(cfg.StragglerFrags))
	for _, f := range cfg.StragglerFrags {
		inj.straggle[f] = true
	}
	inj.hard = make(map[int]bool, len(cfg.HardFailFrags))
	for _, f := range cfg.HardFailFrags {
		inj.hard[f] = true
	}
	return inj
}

// RandomInjector draws every decision from a hash of (seed, frag, attempt),
// so it needs no state and no locks.
type RandomInjector struct {
	cfg      Config
	straggle map[int]bool
	hard     map[int]bool
}

// salts decorrelate the per-fault-kind draws.
const (
	saltTransient = 0x51
	saltNaN       = 0x52
	saltPanic     = 0x53
	saltStraggler = 0x54
)

// Plan implements Injector.
func (in *RandomInjector) Plan(frag, attempt int) Action {
	var act Action
	if in.hard[frag] {
		act.Err = &InjectedError{Frag: frag, Attempt: attempt, Hard: true, Msg: "forced divergence"}
		return act
	}
	if in.straggle[frag] && attempt == 1 {
		act.Delay = in.cfg.StragglerDelay
	} else if in.cfg.StragglerRate > 0 && attempt == 1 &&
		Uniform(in.cfg.Seed, frag, attempt, saltStraggler) < in.cfg.StragglerRate {
		act.Delay = in.cfg.StragglerDelay
	}
	if attempt > in.cfg.MaxPerFragment {
		return act
	}
	switch {
	case Uniform(in.cfg.Seed, frag, attempt, saltTransient) < in.cfg.TransientRate:
		act.Err = &InjectedError{Frag: frag, Attempt: attempt, Msg: "worker error"}
	case Uniform(in.cfg.Seed, frag, attempt, saltNaN) < in.cfg.NaNRate:
		act.NaN = true
	case Uniform(in.cfg.Seed, frag, attempt, saltPanic) < in.cfg.PanicRate:
		act.Panic = true
	}
	return act
}

// Uniform is a deterministic hash-based draw in [0,1) from the tuple
// (seed, frag, attempt, salt) through a splitmix-style finalizer.
func Uniform(seed int64, frag, attempt, salt int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^
		uint64(frag)*0xC2B2AE3D27D4EB4F ^
		uint64(attempt)*0x165667B19E3779F9 ^
		uint64(salt)*0xD6E8FEB86659FD93
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}
